(** Hierarchical spans with per-domain attribution.

    Each domain keeps its own stack of open frames, so nesting is
    well-parenthesized per domain even when worker domains open spans
    concurrently with the main loop (the old single [depth] counter
    conflated them).  Closing a frame charges its duration to the parent
    frame's child-time accumulator, which is what lets the per-name
    aggregates report {e self} (exclusive) time next to the total.

    Span ids are allocated from a single counter under the tree lock, so
    they order opens globally; completed span records are only retained
    when the tree was created with [retain:true] (profiling mode — the
    Chrome trace export needs them, plain metrics runs do not). *)

type span = {
  sid : int;
  parent : int option;
  name : string;
  domain : int;
  depth : int;  (** nesting level on its domain, outermost = 1 *)
  t0 : float;  (** open timestamp, {!Clock.now} *)
  dur_s : float;
}

type frame = {
  f_name : string;
  f_sid : int;
  f_parent : int option;
  f_depth : int;
  f_domain : int;
  f_t0 : float;
  mutable f_child_s : float;
}

type agg = {
  mutable a_calls : int;
  mutable a_total_s : float;
  mutable a_self_s : float;
  mutable a_max_depth : int;
}

type t = {
  lock : Mutex.t;
  retain : bool;
  mutable next_sid : int;
  stacks : (int, frame list) Hashtbl.t;  (** domain id -> open frames *)
  aggs : (string, agg) Hashtbl.t;
  mutable completed : span list;  (** newest first; only when [retain] *)
}

let create ~retain () =
  {
    lock = Mutex.create ();
    retain;
    next_sid = 0;
    stacks = Hashtbl.create 8;
    aggs = Hashtbl.create 16;
    completed = [];
  }

let enter t name =
  let domain = (Domain.self () :> int) in
  Mutex.protect t.lock (fun () ->
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt t.stacks domain)
      in
      let parent = match stack with [] -> None | f :: _ -> Some f.f_sid in
      let sid = t.next_sid in
      t.next_sid <- sid + 1;
      let f =
        {
          f_name = name;
          f_sid = sid;
          f_parent = parent;
          f_depth = List.length stack + 1;
          f_domain = domain;
          f_t0 = Clock.now ();
          f_child_s = 0.0;
        }
      in
      Hashtbl.replace t.stacks domain (f :: stack);
      f)

let exit t (f : frame) =
  let t1 = Clock.now () in
  Mutex.protect t.lock (fun () ->
      let dt = Float.max 0.0 (t1 -. f.f_t0) in
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt t.stacks f.f_domain)
      in
      (* [Fun.protect] in the recorder guarantees LIFO per domain, but be
         defensive: drop exactly this frame wherever it sits *)
      let rest =
        match stack with
        | g :: tl when g == f -> tl
        | _ -> List.filter (fun g -> not (g == f)) stack
      in
      Hashtbl.replace t.stacks f.f_domain rest;
      (match rest with
      | g :: _ -> g.f_child_s <- g.f_child_s +. dt
      | [] -> ());
      let a =
        match Hashtbl.find_opt t.aggs f.f_name with
        | Some a -> a
        | None ->
          let a =
            { a_calls = 0; a_total_s = 0.0; a_self_s = 0.0; a_max_depth = 0 }
          in
          Hashtbl.add t.aggs f.f_name a;
          a
      in
      a.a_calls <- a.a_calls + 1;
      a.a_total_s <- a.a_total_s +. dt;
      a.a_self_s <- a.a_self_s +. Float.max 0.0 (dt -. f.f_child_s);
      a.a_max_depth <- Int.max a.a_max_depth f.f_depth;
      if t.retain then
        t.completed <-
          {
            sid = f.f_sid;
            parent = f.f_parent;
            name = f.f_name;
            domain = f.f_domain;
            depth = f.f_depth;
            t0 = f.f_t0;
            dur_s = dt;
          }
          :: t.completed;
      dt)

let aggregates t : Metrics.span_stat list =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun name (a : agg) acc ->
          {
            Metrics.span_name = name;
            calls = a.a_calls;
            total_s = a.a_total_s;
            self_s = a.a_self_s;
            max_depth = a.a_max_depth;
          }
          :: acc)
        t.aggs [])
  |> List.sort (fun (a : Metrics.span_stat) b ->
         String.compare a.span_name b.span_name)

let spans t =
  Mutex.protect t.lock (fun () -> t.completed)
  |> List.sort (fun a b -> Int.compare a.sid b.sid)
