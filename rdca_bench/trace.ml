(* In-memory spans around the benchmark's calls into the program's
   layers, plus named counts; written out once, at the end, as Chrome
   trace-event JSON. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  stop : float;
  mutable args : (string * float) list;
}

let enabled = ref false
let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let with_span ?(on_close = fun (_ : span) -> ()) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let close () =
      let s =
        { id; parent; name; start; stop = Unix.gettimeofday (); args = [] }
      in
      stack := List.tl !stack;
      on_close s;
      spans := s :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Counts the benchmark reads off the program's results (cubes, gates,
   passes...), summed by name while tracing is on. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  if !enabled then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* Total duration and number of the spans called [name]. *)
let total name =
  List.fold_left
    (fun (t, n) s -> if s.name = name then (t +. s.stop -. s.start, n + 1) else (t, n))
    (0.0, 0) !spans

(* Share of the time of the spans called [root] that their direct
   children cover. *)
let coverage root =
  let roots = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.name = root then Hashtbl.replace roots s.id (s.stop -. s.start))
    !spans;
  let covered =
    List.fold_left
      (fun acc s ->
        if Hashtbl.mem roots s.parent then acc +. (s.stop -. s.start) else acc)
      0.0 !spans
  in
  let whole = Hashtbl.fold (fun _ d acc -> acc +. d) roots 0.0 in
  if whole = 0.0 then 0.0 else covered /. whole

let to_json ~t0 =
  let module J = Rdca_json.Jsonout in
  let pid = Unix.getpid () in
  let us t = J.Float (Float.round ((t -. t0) *. 1e6)) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String "rdca_bench");
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", J.Float (Float.round ((s.stop -. s.start) *. 1e6)));
        ("pid", J.Int pid);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            ((("id", J.Int s.id) :: ("parent", J.Int s.parent)
             :: List.map (fun (k, v) -> (k, J.Float v)) s.args)) );
      ]
  in
  J.Obj
    [
      ("displayTimeUnit", J.String "ms");
      ( "traceEvents",
        J.List
          (List.map event
             (List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) !spans))
      );
    ]
