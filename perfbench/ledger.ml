(* The traced run's ledger: spans kept in memory (name, start, end, the
   span that caused it) plus per-call duration samples for the hot calls
   too numerous to keep as spans.  Everything is written out once, when
   the benchmark ends. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  start_s : float;
  stop_s : float;
}

type t = {
  origin : float;
  mutable closed : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  samples : (string, float list ref) Hashtbl.t;
}

let now = Relax_obs.Clock.now

let create () =
  {
    origin = now ();
    closed = [];
    stack = [];
    next_id = 0;
    samples = Hashtbl.create 16;
  }

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  let start_s = now () -. t.origin in
  t.stack <- id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      t.closed <-
        { id; name; parent; start_s; stop_s = now () -. t.origin } :: t.closed)
    f

let spans t = List.rev t.closed
let duration s = s.stop_s -. s.start_s

(* summed wall-clock of every span named [name] *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 t.closed

(* per-call samples: [time t key f] runs [f] and files its duration *)
let sample t key v =
  match Hashtbl.find_opt t.samples key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace t.samples key (ref [ v ])

let time t key f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> sample t key (now () -. t0)) f

let samples t key =
  match Hashtbl.find_opt t.samples key with Some l -> List.rev !l | None -> []

(* nearest-rank percentile, 0 on no samples *)
let percentile p values =
  match List.sort Float.compare values with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median values =
  match List.sort Float.compare values with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let span_json s =
  let open Relax_obs.Json in
  Obj
    [
      ("id", Int s.id);
      ("name", String s.name);
      ("parent", match s.parent with Some p -> Int p | None -> Null);
      ("start_s", Float s.start_s);
      ("end_s", Float s.stop_s);
    ]

(* one JSON object per span, then one per sample series *)
let write t file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin file (fun oc ->
      let line j =
        Out_channel.output_string oc (Relax_obs.Json.to_string j);
        Out_channel.output_char oc '\n'
      in
      List.iter (fun s -> line (span_json s)) (spans t);
      Hashtbl.to_seq_keys t.samples
      |> List.of_seq |> List.sort String.compare
      |> List.iter (fun key ->
             let v = samples t key in
             line
               (Relax_obs.Json.Obj
                  [
                    ("samples", Relax_obs.Json.String key);
                    ("count", Relax_obs.Json.Int (List.length v));
                    ("p50", Relax_obs.Json.Float (median v));
                    ("p99", Relax_obs.Json.Float (percentile 0.99 v));
                  ])))
