module G = Netlist.Gate

(* Our own copy of the gate semantics: a gate is a primitive
   connective or a truth table whose bit [idx] is the output when bit
   [p] of [idx] is pin [p]. *)
type op =
  | In of int
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Table of { tt : int; area : float; delay : float; cap : float }

type t = {
  ni : int;
  ops : op array;  (** by node id *)
  fanins : int array array;
  outputs : int array;
}

let of_netlist nl =
  let ni = Netlist.ni nl in
  let nodes = ref [] in
  Netlist.iter_nodes nl (fun id g fanins -> nodes := (id, g, fanins) :: !nodes);
  let n = List.fold_left (fun acc (id, _, _) -> max acc (id + 1)) ni !nodes in
  let ops = Array.init n (fun id -> if id < ni then In id else Const false) in
  let fanins = Array.make n [||] in
  List.iter
    (fun (id, g, fi) ->
      fanins.(id) <- Array.copy fi;
      ops.(id) <-
        (match g with
        | G.Input i -> In i
        | G.Const b -> Const b
        | G.Buf -> Buf
        | G.Not -> Not
        | G.And -> And
        | G.Or -> Or
        | G.Nand -> Nand
        | G.Nor -> Nor
        | G.Xor -> Xor
        | G.Xnor -> Xnor
        | G.Cell c ->
            if Array.length fi <> c.G.arity then
              invalid_arg "Refmodel: cell arity differs from its fanins";
            Table
              {
                tt = c.G.tt;
                area = c.G.area;
                delay = c.G.delay;
                cap = c.G.input_cap;
              }))
    !nodes;
  for id = 0 to ni - 1 do
    match Netlist.gate nl id with
    | G.Input i -> ops.(id) <- In i
    | _ -> invalid_arg "Refmodel: node below ni is not an input"
  done;
  Array.iteri
    (fun id fi ->
      Array.iter
        (fun f ->
          if f < 0 || f >= id then invalid_arg "Refmodel: fanin not topological")
        fi)
    fanins;
  { ni; ops; fanins; outputs = Array.copy (Netlist.outputs nl) }

let ni t = t.ni
let no t = Array.length t.outputs

let sites t =
  let acc = ref [] in
  Array.iteri
    (fun id op ->
      match op with In _ | Const _ -> () | _ -> acc := id :: !acc)
    t.ops;
  List.rev !acc

let gates t = List.length (sites t)

type fault = Stem of int * bool | Branch of int * int * bool | Flip of int

(* ------------------------------------------------------------------ *)
(* Simulation: [width] minterms per word, bit [j] of a word is minterm
   [base + j]. *)

let width = 62

let gate_word op args mask =
  let fold f init = Array.fold_left f init args in
  let v =
    match op with
    | In _ -> invalid_arg "Refmodel: input evaluated as a gate"
    | Const b -> if b then mask else 0
    | Buf -> args.(0)
    | Not -> lnot args.(0)
    | And -> fold ( land ) mask
    | Or -> fold ( lor ) 0
    | Nand -> lnot (fold ( land ) mask)
    | Nor -> lnot (fold ( lor ) 0)
    | Xor -> fold ( lxor ) 0
    | Xnor -> lnot (fold ( lxor ) 0)
    | Table { tt; _ } ->
        (* Sum of the table's minterms over the pins. *)
        let k = Array.length args in
        let acc = ref 0 in
        for idx = 0 to (1 lsl k) - 1 do
          if (tt lsr idx) land 1 = 1 then begin
            let term = ref mask in
            for p = 0 to k - 1 do
              term :=
                !term land if (idx lsr p) land 1 = 1 then args.(p) else lnot args.(p)
            done;
            acc := !acc lor !term
          end
        done;
        !acc
  in
  v land mask

(* Node words of the chunk starting at minterm [base]. *)
let simulate ?fault t ~base ~count =
  let mask = (1 lsl count) - 1 in
  let forced id v =
    match fault with
    | Some (Stem (n, b)) when n = id -> if b then mask else 0
    | Some (Flip n) when n = id -> lnot v land mask
    | _ -> v
  in
  let words = Array.make (Array.length t.ops) 0 in
  Array.iteri
    (fun id op ->
      let v =
        match op with
        | In i ->
            let w = ref 0 in
            for j = 0 to count - 1 do
              if ((base + j) lsr i) land 1 = 1 then w := !w lor (1 lsl j)
            done;
            !w
        | _ ->
            let args = Array.map (fun f -> words.(f)) t.fanins.(id) in
            (match fault with
            | Some (Branch (n, j, b)) when n = id ->
                args.(j) <- (if b then mask else 0)
            | _ -> ());
            gate_word op args mask
      in
      words.(id) <- forced id v)
    t.ops;
  words

let iter_chunks t f =
  let size = 1 lsl t.ni in
  let base = ref 0 in
  while !base < size do
    let count = min width (size - !base) in
    f ~base:!base ~count;
    base := !base + count
  done

let output_tables ?fault t =
  let size = 1 lsl t.ni in
  let tables = Array.map (fun _ -> Array.make size false) t.outputs in
  iter_chunks t (fun ~base ~count ->
      let words = simulate ?fault t ~base ~count in
      Array.iteri
        (fun o id ->
          for j = 0 to count - 1 do
            tables.(o).(base + j) <- (words.(id) lsr j) land 1 = 1
          done)
        t.outputs);
  tables

let detects t fault m =
  let good = simulate t ~base:m ~count:1
  and bad = simulate ~fault t ~base:m ~count:1 in
  Array.exists (fun id -> good.(id) <> bad.(id)) t.outputs

let testable t fault =
  let found = ref false in
  iter_chunks t (fun ~base ~count ->
      if not !found then begin
        let good = simulate t ~base ~count
        and bad = simulate ~fault t ~base ~count in
        if Array.exists (fun id -> good.(id) <> bad.(id)) t.outputs then
          found := true
      end);
  !found

(* ------------------------------------------------------------------ *)
(* Specifications *)

type phase = On | Off | Dc
type spec = { s_ni : int; s_no : int; phases : phase array array }

let spec_of_pla s =
  let ni = Pla.Spec.ni s and no = Pla.Spec.no s in
  {
    s_ni = ni;
    s_no = no;
    phases =
      Array.init no (fun o ->
          Array.init (1 lsl ni) (fun m ->
              match Pla.Spec.get s ~o ~m with
              | Pla.Spec.On -> On
              | Pla.Spec.Off -> Off
              | Pla.Spec.Dc -> Dc));
  }

let check_shape spec tables =
  if Array.length tables <> spec.s_no then
    invalid_arg "Refmodel: output count differs from the spec"

let care_mismatch spec tables =
  check_shape spec tables;
  let found = ref None in
  Array.iteri
    (fun o ph ->
      Array.iteri
        (fun m p ->
          if !found = None then
            match p with
            | On when not tables.(o).(m) -> found := Some (o, m)
            | Off when tables.(o).(m) -> found := Some (o, m)
            | _ -> ())
        ph)
    spec.phases;
  !found

let error_events spec tables =
  check_shape spec tables;
  let events = ref 0 in
  Array.iteri
    (fun o ph ->
      let f = tables.(o) in
      Array.iteri
        (fun m p ->
          if p <> Dc then
            for i = 0 to spec.s_ni - 1 do
              if f.(m) <> f.(m lxor (1 lsl i)) then incr events
            done)
        ph)
    spec.phases;
  !events

let dc_bounds spec ~o =
  let ph = spec.phases.(o) in
  let lower = ref 0 and upper = ref 0 in
  Array.iteri
    (fun m p ->
      let on = ref 0 and off = ref 0 in
      for i = 0 to spec.s_ni - 1 do
        match ph.(m lxor (1 lsl i)) with
        | On -> incr on
        | Off -> incr off
        | Dc -> ()
      done;
      match p with
      | On -> (* care neighbours of the other phase differ whatever happens *)
          lower := !lower + !off;
          upper := !upper + !off
      | Off ->
          lower := !lower + !on;
          upper := !upper + !on
      | Dc ->
          (* A DC assigned 1 differs from its off-neighbours, 0 from its
             on-neighbours; the events originate at those care minterms. *)
          lower := !lower + min !on !off;
          upper := !upper + max !on !off)
    ph;
  (!lower, !upper)

(* ------------------------------------------------------------------ *)
(* Cost *)

let area t =
  Array.fold_left
    (fun acc op ->
      match op with
      | In _ | Const _ -> acc
      | Table { area; _ } -> acc +. area
      | _ -> acc +. 1.0)
    0.0 t.ops

let delay t =
  let arrival = Array.make (Array.length t.ops) 0.0 in
  Array.iteri
    (fun id op ->
      let d =
        match op with
        | In _ | Const _ -> 0.0
        | Table { delay; _ } -> delay
        | _ -> 1.0
      in
      let worst =
        Array.fold_left (fun acc f -> max acc arrival.(f)) 0.0 t.fanins.(id)
      in
      arrival.(id) <- (match op with In _ -> 0.0 | _ -> worst +. d))
    t.ops;
  Array.fold_left (fun acc o -> max acc arrival.(o)) 0.0 t.outputs

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let power t =
  let n = Array.length t.ops in
  let ones = Array.make n 0 in
  iter_chunks t (fun ~base ~count ->
      let words = simulate t ~base ~count in
      Array.iteri (fun id w -> ones.(id) <- ones.(id) + popcount w) words);
  let cap = Array.make n 0.0 in
  Array.iteri
    (fun id op ->
      let pin = match op with Table { cap; _ } -> cap | _ -> 1.0 in
      Array.iter (fun f -> cap.(f) <- cap.(f) +. pin) t.fanins.(id))
    t.ops;
  Array.iter (fun o -> cap.(o) <- cap.(o) +. 1.0) t.outputs;
  let size = float_of_int (1 lsl t.ni) in
  let acc = ref 0.0 in
  for id = 0 to n - 1 do
    let p = float_of_int ones.(id) /. size in
    acc := !acc +. (2.0 *. p *. (1.0 -. p) *. cap.(id))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Fault campaigns *)

let propagation_moments ?good spec t fault =
  let good = match good with Some g -> g | None -> output_tables t in
  let bad = output_tables ~fault t in
  check_shape spec good;
  let size = 1 lsl t.ni in
  let s1 = ref 0 and s2 = ref 0 in
  for m = 0 to size - 1 do
    let x = ref 0 in
    for o = 0 to spec.s_no - 1 do
      if spec.phases.(o).(m) <> Dc && good.(o).(m) <> bad.(o).(m) then incr x
    done;
    s1 := !s1 + !x;
    s2 := !s2 + (!x * !x)
  done;
  let mean = float_of_int !s1 /. float_of_int size in
  (mean, (float_of_int !s2 /. float_of_int size) -. (mean *. mean))
