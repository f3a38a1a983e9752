(** Sharded parallel offline trace analysis.

    Every attached detector keys its state per object ({!Crd_detector.Rd2},
    {!Crd_detector.Direct}) or per memory location ({!Crd_fasttrack.Fasttrack},
    {!Crd_fasttrack.Djit}), so a recorded trace decomposes: a sequential
    happens-before pass assigns every [Call]/[Read]/[Write] event its
    clock snapshot and routes it by object-shard (calls hash on the
    object identity, reads and writes on the location) into per-shard
    batches of {!chunk_events} events, which independent detector
    instances — one per shard, fanned out over OCaml 5 domains — drain
    concurrently with the producing pass. Each shard owns a
    {!Crd_vclock.Vclock.Pool} arena, so the steady-state hot loop
    allocates no vector clocks.

    The merge is deterministic: each event lives in exactly one shard, so
    sorting the per-shard reports by trace index reproduces the sequential
    report list {e bit-identically} (within one event the emission order
    is preserved by the stable sort), and summed counters equal the
    sequential ones — see DESIGN.md, "Shard-merge determinism".

    Traces below {!default_parallel_threshold} events fall back to the
    inline sequential path — domain spawn and handoff overhead would
    dominate — unless [force] is set.

    The atomicity checker builds one cross-object transactional graph and
    does not decompose; when enabled it runs sequentially during the
    happens-before pass. *)

open Crd_base
open Crd_spec
open Crd_trace
open Crd_detector
open Crd_fasttrack

type result = {
  events : int;  (** events in the trace *)
  shards : int;  (** shards actually used *)
  fell_back : bool;
      (** parallel analysis was requested but the trace was below the
          event threshold, so the inline sequential path ran instead *)
  rd2_reports : Report.t list;
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Crd_atomicity.Atomicity.violation list;
}

val default_parallel_threshold : int
(** Minimum trace length (events) for which parallel analysis is worth
    the domain-spawn and chunk-handoff overhead; below it, [analyze]
    with [jobs > 1] falls back to the sequential path (100_000). *)

val chunk_events : int
(** Events per handoff chunk (8192): per-shard struct-of-arrays batches
    are filled by the sequential pass and drained whole by workers, so
    the per-event handoff cost is three array stores. *)

val analyze :
  ?jobs:int ->
  ?force:bool ->
  ?threshold:int ->
  ?config:Analyzer.config ->
  spec_for:(Obj_id.t -> Spec.t option) ->
  Trace.t ->
  (result, string) Stdlib.result
(** [analyze ~jobs ~config ~spec_for trace] partitions the trace into
    [jobs] shards (default 1) and analyzes them in parallel, streaming
    chunks to worker domains while the sequential happens-before pass is
    still running. [spec_for] and all specification translations are
    resolved in the sequential pass, so the closure is never called
    concurrently; translation failures surface as [Error]. With an
    effective shard count of 1 no domain is spawned.

    Traces shorter than [threshold] (default
    {!default_parallel_threshold}) run sequentially even when [jobs > 1]
    — reported via [fell_back] — unless [force] is [true]. *)

val analyze_stdspecs :
  ?jobs:int ->
  ?force:bool ->
  ?threshold:int ->
  ?config:Analyzer.config ->
  Trace.t ->
  (result, string) Stdlib.result
(** Like {!analyze} with the built-in specification naming convention of
    {!Analyzer.with_stdspecs}. *)

val pp_summary : result Fmt.t
(** Analyzer-style summary, plus the shard count and same-epoch rate. *)

val pp_summary_with : rd2_distinct:int -> result Fmt.t
(** [pp_summary] given [Report.distinct r.rd2_reports], as
    {!Analyzer.pp_summary_with}. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], capped to 8 — a sensible [--jobs]
    default for offline analysis. *)
