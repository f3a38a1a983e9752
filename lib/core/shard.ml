open Crd_base
open Crd_spec
open Crd_apoint
open Crd_trace
open Crd_detector
open Crd_fasttrack
module Vclock = Crd_vclock.Vclock

type result = {
  events : int;
  shards : int;
  fell_back : bool;
  rd2_reports : Report.t list;
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Crd_atomicity.Atomicity.violation list;
}

let recommended_jobs () = min 8 (Domain.recommended_domain_count ())

let default_parallel_threshold = 100_000

(* Chunk size of the batched handoff: large enough that queue round
   trips and mutex operations are amortized over thousands of events,
   small enough that workers start draining while the sequential
   happens-before pass is still producing. *)
let chunk_events = 8_192

(* ------------------------------------------------------------------ *)
(* Detector bundles                                                    *)
(* ------------------------------------------------------------------ *)

(* One detector set, shared between the inline sequential path and the
   per-shard workers. Each bundle owns its vector-clock pool: pools are
   single-owner, and a bundle never leaves the domain that created it. *)
type detectors = {
  rd2 : Rd2.t option;
  direct : Direct.t option;
  ft : Fasttrack.t option;
  djit : Djit.t option;
  pool : Vclock.Pool.t;
}

type shard_out = {
  sh_rd2 : Report.t list;
  sh_rd2_stats : Rd2.stats option;
  sh_direct : Report.t list;
  sh_direct_stats : Direct.stats option;
  sh_ft : Rw_report.t list;
  sh_ft_stats : Fasttrack.stats option;
  sh_djit : Rw_report.t list;
}

let make_detectors (config : Analyzer.config) ~repr_for ~spec_for () =
  let pool = Metrics.create_pool () in
  {
    rd2 =
      (match config.rd2 with
      | `Off -> None
      | (`Constant | `Linear) as mode ->
          Some (Rd2.create ~mode ~pool ~repr_for ()));
    direct =
      (if config.direct then Some (Direct.create ~spec_for ()) else None);
    ft = (if config.fasttrack then Some (Fasttrack.create ~pool ()) else None);
    djit = (if config.djit then Some (Djit.create ()) else None);
    pool;
  }

(* The dispatch hot loop: no allocation of its own — everything it
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
    sh_rd2 = (match d.rd2 with Some det -> Rd2.races det | None -> []);
    sh_rd2_stats = Option.map Rd2.stats d.rd2;
    sh_direct = (match d.direct with Some det -> Direct.races det | None -> []);
    sh_direct_stats = Option.map Direct.stats d.direct;
    sh_ft = (match d.ft with Some det -> Fasttrack.races det | None -> []);
    sh_ft_stats = Option.map Fasttrack.stats d.ft;
    sh_djit = (match d.djit with Some det -> Djit.races det | None -> []);
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
   (the sequential pass) pushes full chunks; the worker drains whole
   chunks. Unbounded: the producer never blocks, and total buffered
   memory is O(events) exactly like the pre-chunking bucket arrays. *)
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

let drain_worker config ~repr_for ~spec_for h () =
  Crd_obs.time Metrics.shard_wall_seconds (fun () ->
      let dets = make_detectors config ~repr_for ~spec_for () in
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

(* ------------------------------------------------------------------ *)
(* Deterministic merge                                                 *)
(* ------------------------------------------------------------------ *)

(* Deterministic merge: each trace index lives in exactly one shard and
   per-shard report lists are already in trace order, so a stable sort on
   the index reproduces the sequential report list exactly. *)
let merge_reports index_of per_shard =
  List.stable_sort
    (fun a b -> Int.compare (index_of a) (index_of b))
    (List.concat per_shard)

let sum_rd2_stats = function
  | [] -> None
  | (s0 : Rd2.stats) :: rest ->
      let acc =
        {
          Rd2.actions = s0.Rd2.actions;
          lookups = s0.Rd2.lookups;
          races = s0.Rd2.races;
          same_epoch = s0.Rd2.same_epoch;
          promotions = s0.Rd2.promotions;
          deflations = s0.Rd2.deflations;
        }
      in
      List.iter
        (fun (s : Rd2.stats) ->
          acc.Rd2.actions <- acc.Rd2.actions + s.Rd2.actions;
          acc.Rd2.lookups <- acc.Rd2.lookups + s.Rd2.lookups;
          acc.Rd2.races <- acc.Rd2.races + s.Rd2.races;
          acc.Rd2.same_epoch <- acc.Rd2.same_epoch + s.Rd2.same_epoch;
          acc.Rd2.promotions <- acc.Rd2.promotions + s.Rd2.promotions;
          acc.Rd2.deflations <- acc.Rd2.deflations + s.Rd2.deflations)
        rest;
      Some acc

let sum_direct_stats = function
  | [] -> None
  | (s0 : Direct.stats) :: rest ->
      let acc =
        {
          Direct.actions = s0.Direct.actions;
          lookups = s0.Direct.lookups;
          races = s0.Direct.races;
        }
      in
      List.iter
        (fun (s : Direct.stats) ->
          acc.Direct.actions <- acc.Direct.actions + s.Direct.actions;
          acc.Direct.lookups <- acc.Direct.lookups + s.Direct.lookups;
          acc.Direct.races <- acc.Direct.races + s.Direct.races)
        rest;
      Some acc

let sum_ft_stats = function
  | [] -> None
  | (s0 : Fasttrack.stats) :: rest ->
      let acc =
        {
          Fasttrack.reads = s0.Fasttrack.reads;
          writes = s0.Fasttrack.writes;
          same_epoch = s0.Fasttrack.same_epoch;
          races = s0.Fasttrack.races;
        }
      in
      List.iter
        (fun (s : Fasttrack.stats) ->
          acc.Fasttrack.reads <- acc.Fasttrack.reads + s.Fasttrack.reads;
          acc.Fasttrack.writes <- acc.Fasttrack.writes + s.Fasttrack.writes;
          acc.Fasttrack.same_epoch <- acc.Fasttrack.same_epoch + s.Fasttrack.same_epoch;
          acc.Fasttrack.races <- acc.Fasttrack.races + s.Fasttrack.races)
        rest;
      Some acc

(* ------------------------------------------------------------------ *)
(* The analysis driver                                                 *)
(* ------------------------------------------------------------------ *)

let analyze ?(jobs = 1) ?(force = false) ?(threshold = default_parallel_threshold)
    ?(config = Analyzer.default_config) ~spec_for trace =
  let total = Trace.length trace in
  let requested = max 1 jobs in
  (* Small traces lose to domain-spawn and handoff overhead; fall back
     to the inline sequential path unless the caller insists. *)
  let fell_back = requested > 1 && (not force) && total < threshold in
  let n = if fell_back then 1 else requested in
  if fell_back then Crd_obs.Counter.incr Metrics.shard_fallback_total;
  (* -------- sequential pass: clocks, routing, spec resolution ------- *)
  let hb = Hb.create () in
  (* Spec/repr resolution happens only in this (producer) domain; the
     tables are also read by worker domains through [repr_ro]/[spec_ro],
     so every cross-domain access takes [tables_mu]. The producer's own
     unlocked reads are safe: it is the only writer. Workers hit the
     lock once per (object, shard) — their detectors memoize. *)
  let tables_mu = Mutex.create () in
  let specs_by_obj : (int, Spec.t option) Hashtbl.t = Hashtbl.create 64 in
  let reprs_by_name : (string, Repr.t) Hashtbl.t = Hashtbl.create 8 in
  let reprs_by_obj : (int, Repr.t option) Hashtbl.t = Hashtbl.create 64 in
  let failure = ref None in
  let resolve (o : Obj_id.t) =
    let key = Obj_id.id o in
    if not (Hashtbl.mem specs_by_obj key) then begin
      let spec = spec_for o in
      let repr =
        match spec with
        | None -> None
        | Some spec -> (
            match Hashtbl.find_opt reprs_by_name (Spec.name spec) with
            | Some r -> Some r
            | None -> (
                match Repr.of_spec spec with
                | Ok r -> Some r
                | Error e ->
                    if !failure = None then
                      failure :=
                        Some (Printf.sprintf "spec %s: %s" (Spec.name spec) e);
                    None))
      in
      Mutex.lock tables_mu;
      Hashtbl.add specs_by_obj key spec;
      (match (spec, repr) with
      | Some spec, Some r -> Hashtbl.replace reprs_by_name (Spec.name spec) r
      | _ -> ());
      Hashtbl.add reprs_by_obj key repr;
      Mutex.unlock tables_mu
    end
  in
  let repr_ro o =
    Mutex.lock tables_mu;
    let r = Option.join (Hashtbl.find_opt reprs_by_obj (Obj_id.id o)) in
    Mutex.unlock tables_mu;
    r
  in
  let spec_ro o =
    Mutex.lock tables_mu;
    let s = Option.join (Hashtbl.find_opt specs_by_obj (Obj_id.id o)) in
    Mutex.unlock tables_mu;
    s
  in
  (* The atomicity checker is cross-object (one transactional graph), so
     it cannot be sharded; it runs here, inside the sequential pass. *)
  let atomicity =
    if config.atomicity then
      Some (Crd_atomicity.Atomicity.create ~repr_for:repr_ro ())
    else None
  in
  let step_sync index (e : Event.t) =
    let vc = Hb.step hb e in
    (match e.op with
    | Event.Call action -> resolve action.Action.obj
    | _ -> ());
    (match atomicity with
    | Some a -> ignore (Crd_atomicity.Atomicity.step a ~index e)
    | None -> ());
    vc
  in
  let outs =
    if n = 1 then begin
      (* Inline path: one detector bundle fed directly during the clock
         pass — no buffering, no routing, no domain. *)
      Crd_obs.time Metrics.shard_wall_seconds (fun () ->
          let dets =
            make_detectors config ~repr_for:repr_ro ~spec_for:spec_ro ()
          in
          Trace.iter trace ~f:(fun index e ->
              let vc = step_sync index e in
              if !failure = None then dispatch dets ~index e vc);
          [ outputs_of dets ])
    end
    else begin
      (* Streaming parallel path: spawn the workers first, then route
         events into per-shard chunks as their clocks are computed, so
         shard analysis overlaps the sequential happens-before pass. *)
      let handoffs = Array.init n (fun _ -> make_handoff ()) in
      let workers =
        Array.map
          (fun h ->
            Domain.spawn
              (drain_worker config ~repr_for:repr_ro ~spec_for:spec_ro h))
          handoffs
      in
      let dummy_vc = Vclock.bot () in
      let fill = Array.init n (fun _ -> fresh_chunk dummy_vc) in
      let route shard index e vc =
        let ch = fill.(shard) in
        let i = ch.c_n in
        Array.unsafe_set ch.c_idx i index;
        Array.unsafe_set ch.c_ev i e;
        Array.unsafe_set ch.c_vc i vc;
        ch.c_n <- i + 1;
        if ch.c_n = chunk_events then begin
          push handoffs.(shard) ch;
          fill.(shard) <- fresh_chunk dummy_vc
        end
      in
      Trace.iter trace ~f:(fun index (e : Event.t) ->
          let vc = step_sync index e in
          if !failure = None then
            match e.op with
            | Event.Call action ->
                route
                  (abs (Obj_id.id action.Action.obj) mod n)
                  index e vc
            | Event.Read loc | Event.Write loc ->
                route (abs (Mem_loc.hash loc) mod n) index e vc
            | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _
            | Event.Begin | Event.End ->
                ());
      Array.iteri
        (fun s h ->
          if fill.(s).c_n > 0 then push h fill.(s);
          close h)
        handoffs;
      Array.to_list (Array.map Domain.join workers)
    end
  in
  match !failure with
  | Some e -> Error e
  | None ->
      let collect f = List.map f outs in
      let stats_of f = List.filter_map f outs in
      let merge_span = Crd_obs.Span.start Metrics.shard_merge_seconds in
      let result =
        {
          events = total;
          shards = n;
          fell_back;
          rd2_reports =
            merge_reports
              (fun (r : Report.t) -> r.Report.index)
              (collect (fun o -> o.sh_rd2));
          rd2_stats = sum_rd2_stats (stats_of (fun o -> o.sh_rd2_stats));
          direct_reports =
            merge_reports
              (fun (r : Report.t) -> r.Report.index)
              (collect (fun o -> o.sh_direct));
          direct_stats = sum_direct_stats (stats_of (fun o -> o.sh_direct_stats));
          fasttrack_reports =
            merge_reports
              (fun (r : Rw_report.t) -> r.Rw_report.index)
              (collect (fun o -> o.sh_ft));
          fasttrack_stats = sum_ft_stats (stats_of (fun o -> o.sh_ft_stats));
          djit_reports =
            merge_reports
              (fun (r : Rw_report.t) -> r.Rw_report.index)
              (collect (fun o -> o.sh_djit));
          atomicity_violations =
            (match atomicity with
            | Some a -> Crd_atomicity.Atomicity.violations a
            | None -> []);
        }
      in
      Crd_obs.Span.finish merge_span;
      Crd_obs.Counter.add Metrics.events_total result.events;
      Crd_obs.Counter.incr Metrics.shard_runs_total;
      Option.iter Metrics.publish_rd2 result.rd2_stats;
      Ok result

let pp_summary_with ~rd2_distinct ppf r =
  Fmt.pf ppf "@[<v>events: %d (%d shard%s%s)@," r.events r.shards
    (if r.shards = 1 then "" else "s")
    (if r.fell_back then ", fell back to sequential" else "");
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
  (match r.direct_stats with
  | Some _ ->
      Fmt.pf ppf "direct: %d races (%d distinct)@,"
        (List.length r.direct_reports)
        (Report.distinct r.direct_reports)
  | None -> ());
  (match r.fasttrack_stats with
  | Some _ ->
      Fmt.pf ppf "fasttrack: %d races (%d distinct locations)@,"
        (List.length r.fasttrack_reports)
        (Rw_report.distinct_locations r.fasttrack_reports)
  | None -> ());
  if r.djit_reports <> [] then
    Fmt.pf ppf "djit: %d races (%d distinct locations)@,"
      (List.length r.djit_reports)
      (Rw_report.distinct_locations r.djit_reports);
  if r.atomicity_violations <> [] then
    Fmt.pf ppf "atomicity: %d violation(s)@,"
      (List.length r.atomicity_violations);
  Fmt.pf ppf "@]"

let pp_summary ppf r =
  pp_summary_with ~rd2_distinct:(Report.distinct r.rd2_reports) ppf r

let analyze_stdspecs ?jobs ?force ?threshold ?config trace =
  let spec_for o =
    let name = Obj_id.name o in
    let base =
      match String.index_opt name ':' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    Crd_stdspecs.Stdspecs.find base
  in
  analyze ?jobs ?force ?threshold ?config ~spec_for trace
