open Crd_base
open Crd_trace
open Crd_spec
open Crd_apoint
open Crd_detector
open Crd_fasttrack
module Vclock = Crd_vclock.Vclock
module Atomicity = Crd_atomicity.Atomicity

type config = {
  rd2 : [ `Off | `Constant | `Linear ];
  direct : bool;
  fasttrack : bool;
  djit : bool;
  atomicity : bool;
}

let default_config =
  {
    rd2 = `Constant;
    direct = false;
    fasttrack = true;
    djit = false;
    atomicity = false;
  }

type result = {
  events : int;
  shards : int;
  fell_back : bool;
  config : config;
  rd2_reports : Report.t list;
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Atomicity.violation list;
}

let default_parallel_threshold = 100_000

(* Chunk size of the batched handoff: large enough that queue round
   trips and mutex operations are amortized over thousands of events,
   small enough that workers start draining while the happens-before
   pass is still producing. *)
let chunk_events = 8_192

let recommended_jobs () = min 8 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Specification resolution                                            *)
(* ------------------------------------------------------------------ *)

(* The one resolution table. Detectors call in once per object (they
   memoize per object), possibly from shard domains, so every access
   takes [mu]; that also keeps [spec_for] from ever running
   concurrently. Representations are memoized by specification name; a
   failed translation leaves the object unmonitored and is reported by
   [finish]. *)
type specs = {
  spec_for : Obj_id.t -> Spec.t option;
  reprs : (string, Repr.t option) Hashtbl.t;
  mu : Mutex.t;
  mutable failure : string option;
}

let spec_of s o = Mutex.protect s.mu (fun () -> s.spec_for o)

let repr_of s o =
  Mutex.protect s.mu (fun () ->
      match s.spec_for o with
      | None -> None
      | Some spec -> (
          let name = Spec.name spec in
          match Hashtbl.find_opt s.reprs name with
          | Some r -> r
          | None ->
              let r =
                match Repr.of_spec spec with
                | Ok r -> Some r
                | Error e ->
                    if s.failure = None then
                      s.failure <- Some (Printf.sprintf "spec %s: %s" name e);
                    None
              in
              Hashtbl.add s.reprs name r;
              r))

(* ------------------------------------------------------------------ *)
(* Detector bundles                                                    *)
(* ------------------------------------------------------------------ *)

(* One detector set: the inline [jobs = 1] analyzer, or one shard. Each
   bundle owns its vector-clock pool: pools are single-owner, and a
   bundle never leaves the domain that created it. *)
type detectors = {
  rd2 : Rd2.t option;
  direct : Direct.t option;
  ft : Fasttrack.t option;
  djit : Djit.t option;
  pool : Vclock.Pool.t;
}

type outputs = {
  o_rd2 : Report.t list;
  o_rd2_stats : Rd2.stats option;
  o_direct : Report.t list;
  o_direct_stats : Direct.stats option;
  o_ft : Rw_report.t list;
  o_ft_stats : Fasttrack.stats option;
  o_djit : Rw_report.t list;
}

let make_detectors (config : config) specs =
  let pool = Metrics.create_pool () in
  {
    rd2 =
      (match config.rd2 with
      | `Off -> None
      | (`Constant | `Linear) as mode ->
          Some (Rd2.create ~mode ~pool ~repr_for:(repr_of specs) ()));
    direct =
      (if config.direct then Some (Direct.create ~spec_for:(spec_of specs) ())
       else None);
    ft = (if config.fasttrack then Some (Fasttrack.create ~pool ()) else None);
    djit = (if config.djit then Some (Djit.create ()) else None);
    pool;
  }

(* The one detector dispatch. No allocation of its own: everything it
   touches (event, clock snapshot) was allocated by the producer. *)
let dispatch d ~index (e : Event.t) vc =
  match e.op with
  | Event.Call action ->
      (match d.rd2 with
      | Some det -> ignore (Rd2.on_action det ~index e.tid action vc)
      | None -> ());
      (match d.direct with
      | Some det -> ignore (Direct.on_action det ~index e.tid action vc)
      | None -> ())
  | Event.Read loc ->
      (match d.ft with
      | Some det -> ignore (Fasttrack.on_read det ~index e.tid loc vc)
      | None -> ());
      (match d.djit with
      | Some det -> ignore (Djit.on_read det ~index e.tid loc vc)
      | None -> ())
  | Event.Write loc ->
      (match d.ft with
      | Some det -> ignore (Fasttrack.on_write det ~index e.tid loc vc)
      | None -> ());
      (match d.djit with
      | Some det -> ignore (Djit.on_write det ~index e.tid loc vc)
      | None -> ())
  | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _
  | Event.Begin | Event.End ->
      ()

let outputs_of d =
  Metrics.publish_pool d.pool;
  {
    o_rd2 = (match d.rd2 with Some det -> Rd2.races det | None -> []);
    o_rd2_stats = Option.map Rd2.stats d.rd2;
    o_direct = (match d.direct with Some det -> Direct.races det | None -> []);
    o_direct_stats = Option.map Direct.stats d.direct;
    o_ft = (match d.ft with Some det -> Fasttrack.races det | None -> []);
    o_ft_stats = Option.map Fasttrack.stats d.ft;
    o_djit = (match d.djit with Some det -> Djit.races det | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Chunked handoff                                                     *)
(* ------------------------------------------------------------------ *)

(* A chunk is a fixed-capacity struct-of-arrays batch: appending an
   event is three unsafe stores and a bump — no per-event closure, list
   cell or queue round-trip. Clock snapshots are the stable [Hb]
   snapshots (copy-on-sync, never mutated after creation), so sharing
   them with a concurrently-running worker is safe once the chunk is
   published under the handoff mutex. *)
type chunk = {
  c_idx : int array;
  c_ev : Event.t array;
  c_vc : Vclock.t array;
  mutable c_n : int;
}

let dummy_event = Event.begin_ Tid.main

let fresh_chunk dummy_vc =
  {
    c_idx = Array.make chunk_events 0;
    c_ev = Array.make chunk_events dummy_event;
    c_vc = Array.make chunk_events dummy_vc;
    c_n = 0;
  }

(* One single-producer single-consumer handoff per shard. The producer
   (the happens-before pass) pushes full chunks; the worker drains whole
   chunks. Unbounded: the producer never blocks. *)
type handoff = {
  mu : Mutex.t;
  cond : Condition.t;
  q : chunk Queue.t;
  mutable closed : bool;
}

let make_handoff () =
  { mu = Mutex.create (); cond = Condition.create (); q = Queue.create ();
    closed = false }

let push h ch =
  Mutex.lock h.mu;
  Queue.push ch h.q;
  Condition.signal h.cond;
  Mutex.unlock h.mu

let close h =
  Mutex.lock h.mu;
  h.closed <- true;
  Condition.signal h.cond;
  Mutex.unlock h.mu

let pop h =
  Mutex.lock h.mu;
  let rec wait () =
    match Queue.take_opt h.q with
    | Some ch -> Some ch
    | None ->
        if h.closed then None
        else begin
          Condition.wait h.cond h.mu;
          wait ()
        end
  in
  let r = wait () in
  Mutex.unlock h.mu;
  r

(* One shard's detector bundle, run over its handoff until it is closed
   and empty: the body of a worker domain, or of the inline fallback. *)
let drain config specs h () =
  Crd_obs.time Metrics.shard_wall_seconds (fun () ->
      let dets = make_detectors config specs in
      let rec loop () =
        match pop h with
        | None -> ()
        | Some ch ->
            for i = 0 to ch.c_n - 1 do
              dispatch dets
                ~index:(Array.unsafe_get ch.c_idx i)
                (Array.unsafe_get ch.c_ev i)
                (Array.unsafe_get ch.c_vc i)
            done;
            Crd_obs.Counter.incr Metrics.shard_chunks_total;
            loop ()
      in
      loop ();
      outputs_of dets)

type sharded = {
  n : int;
  handoffs : handoff array;
  fill : chunk array;
  dummy_vc : Vclock.t;
  mutable workers : outputs Domain.t array;  (** empty until spawned *)
}

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

type mode = Inline of detectors | Sharded of sharded

type t = {
  config : config;
  specs : specs;
  hb : Hb.t;
  atomicity : Atomicity.t option;
  mode : mode;
  mutable events : int;
  mutable finished : (result, string) Stdlib.result option;
}

let spawn t s =
  s.workers <-
    Array.map (fun h -> Domain.spawn (drain t.config t.specs h)) s.handoffs

let create ?(config = default_config) ?(jobs = 1) ?(force = false) ~spec_for
    () =
  let specs =
    { spec_for; reprs = Hashtbl.create 8; mu = Mutex.create (); failure = None }
  in
  let mode =
    if jobs <= 1 then Inline (make_detectors config specs)
    else
      let dummy_vc = Vclock.bot () in
      Sharded
        {
          n = jobs;
          handoffs = Array.init jobs (fun _ -> make_handoff ());
          fill = Array.init jobs (fun _ -> fresh_chunk dummy_vc);
          dummy_vc;
          workers = [||];
        }
  in
  let t =
    {
      config;
      specs;
      hb = Hb.create ();
      atomicity =
        (if config.atomicity then
           Some (Atomicity.create ~repr_for:(repr_of specs) ())
         else None);
      mode;
      events = 0;
      finished = None;
    }
  in
  (match mode with Sharded s when force -> spawn t s | _ -> ());
  t

let with_stdspecs ?config ?jobs ?force () =
  create ?config ?jobs ?force ~spec_for:Crd_stdspecs.Stdspecs.spec_for ()

(* Append one event to its shard's chunk; a full chunk is handed off,
   and the first handoff past the threshold spawns the workers. *)
let route t s shard index e vc =
  let ch = s.fill.(shard) in
  let i = ch.c_n in
  Array.unsafe_set ch.c_idx i index;
  Array.unsafe_set ch.c_ev i e;
  Array.unsafe_set ch.c_vc i vc;
  ch.c_n <- i + 1;
  if ch.c_n = chunk_events then begin
    push s.handoffs.(shard) ch;
    s.fill.(shard) <- fresh_chunk s.dummy_vc;
    if Array.length s.workers = 0 && t.events >= default_parallel_threshold
    then spawn t s
  end

let step t (e : Event.t) =
  let index = t.events in
  t.events <- index + 1;
  let vc = Hb.step t.hb e in
  (match t.atomicity with
  | Some a -> ignore (Atomicity.step a ~index e)
  | None -> ());
  match t.mode with
  | Inline d -> dispatch d ~index e vc
  | Sharded s -> (
      match e.op with
      | Event.Call action ->
          route t s (abs (Obj_id.id action.Action.obj) mod s.n) index e vc
      | Event.Read loc | Event.Write loc ->
          route t s (abs (Mem_loc.hash loc) mod s.n) index e vc
      | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _
      | Event.Begin | Event.End ->
          ())

let sink t e = step t e
let run_trace t trace = Trace.iter_events trace ~f:(step t)
let events t = t.events

(* ------------------------------------------------------------------ *)
(* Deterministic merge                                                 *)
(* ------------------------------------------------------------------ *)

(* Each trace index lives in exactly one shard and per-shard report
   lists are already in trace order, so a stable sort on the index
   reproduces the [jobs = 1] report list exactly. *)
let merge_reports index_of = function
  | [ one ] -> one
  | per_shard ->
      List.stable_sort
        (fun a b -> Int.compare (index_of a) (index_of b))
        (List.concat per_shard)

let sum_stats add = function
  | [] -> None
  | s :: rest -> Some (List.fold_left add s rest)

let add_rd2 (a : Rd2.stats) (b : Rd2.stats) =
  {
    Rd2.actions = a.actions + b.actions;
    lookups = a.lookups + b.lookups;
    races = a.races + b.races;
    same_epoch = a.same_epoch + b.same_epoch;
    promotions = a.promotions + b.promotions;
    deflations = a.deflations + b.deflations;
  }

let add_direct (a : Direct.stats) (b : Direct.stats) =
  {
    Direct.actions = a.actions + b.actions;
    lookups = a.lookups + b.lookups;
    races = a.races + b.races;
  }

let add_ft (a : Fasttrack.stats) (b : Fasttrack.stats) =
  {
    Fasttrack.reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    same_epoch = a.same_epoch + b.same_epoch;
    races = a.races + b.races;
  }

(* Join every worker before re-raising the first failure, so no domain
   outlives the analyzer. *)
let join_all workers =
  Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) workers
  |> Array.to_list
  |> List.map (function Ok o -> o | Error e -> raise e)

let collect t =
  match t.mode with
  | Inline d -> ([ outputs_of d ], 1, false)
  | Sharded s ->
      Array.iteri
        (fun i h ->
          if s.fill.(i).c_n > 0 then push h s.fill.(i);
          close h)
        s.handoffs;
      Crd_obs.Counter.incr Metrics.shard_runs_total;
      if Array.length s.workers > 0 then (join_all s.workers, s.n, false)
      else begin
        Crd_obs.Counter.incr Metrics.shard_fallback_total;
        ( Array.to_list
            (Array.map (fun h -> drain t.config t.specs h ()) s.handoffs),
          1,
          true )
      end

let merge t (outs, shards, fell_back) =
  let merge_span =
    match outs with
    | [ _ ] -> None
    | _ -> Some (Crd_obs.Span.start Metrics.shard_merge_seconds)
  in
  let field f = List.map f outs and stats f = List.filter_map f outs in
  let by_index (r : Report.t) = r.Report.index in
  let by_rw_index (r : Rw_report.t) = r.Rw_report.index in
  let r =
    {
      events = t.events;
      shards;
      fell_back;
      config = t.config;
      rd2_reports = merge_reports by_index (field (fun o -> o.o_rd2));
      rd2_stats = sum_stats add_rd2 (stats (fun o -> o.o_rd2_stats));
      direct_reports = merge_reports by_index (field (fun o -> o.o_direct));
      direct_stats = sum_stats add_direct (stats (fun o -> o.o_direct_stats));
      fasttrack_reports = merge_reports by_rw_index (field (fun o -> o.o_ft));
      fasttrack_stats = sum_stats add_ft (stats (fun o -> o.o_ft_stats));
      djit_reports = merge_reports by_rw_index (field (fun o -> o.o_djit));
      atomicity_violations =
        (match t.atomicity with
        | Some a -> Atomicity.violations a
        | None -> []);
    }
  in
  Option.iter Crd_obs.Span.finish merge_span;
  Option.iter Metrics.publish_rd2 r.rd2_stats;
  r

let finish t =
  match t.finished with
  | Some r -> r
  | None ->
      Crd_obs.Counter.add Metrics.events_total t.events;
      let r =
        match collect t with
        | exception Invalid_argument e -> Error e
        | outs -> (
            match t.specs.failure with
            | Some e -> Error e
            | None -> Ok (merge t outs))
      in
      t.finished <- Some r;
      r

(* ------------------------------------------------------------------ *)
(* The summary                                                         *)
(* ------------------------------------------------------------------ *)

let pp_summary_with ~rd2_distinct ppf (r : result) =
  Fmt.pf ppf "@[<v>events: %d@," r.events;
  (match r.rd2_stats with
  | Some s ->
      Fmt.pf ppf "rd2: %d races (%d distinct)@,"
        (List.length r.rd2_reports)
        rd2_distinct;
      if s.Rd2.actions > 0 then
        Fmt.pf ppf "rd2: %d/%d actions same-epoch (%.1f%%)@," s.Rd2.same_epoch
          s.Rd2.actions
          (100. *. float_of_int s.Rd2.same_epoch /. float_of_int s.Rd2.actions)
  | None -> ());
  if r.config.direct then
    Fmt.pf ppf "direct: %d races (%d distinct)@,"
      (List.length r.direct_reports)
      (Report.distinct r.direct_reports);
  if r.config.fasttrack then
    Fmt.pf ppf "fasttrack: %d races (%d distinct locations)@,"
      (List.length r.fasttrack_reports)
      (Rw_report.distinct_locations r.fasttrack_reports);
  if r.config.djit then
    Fmt.pf ppf "djit: %d races (%d distinct locations)@,"
      (List.length r.djit_reports)
      (Rw_report.distinct_locations r.djit_reports);
  if r.config.atomicity then
    Fmt.pf ppf "atomicity: %d violation(s)@,"
      (List.length r.atomicity_violations);
  Fmt.pf ppf "@]"

let pp_summary ppf (r : result) =
  pp_summary_with ~rd2_distinct:(Report.distinct r.rd2_reports) ppf r
