(** The analysis driver: one streaming pipeline for every source.

    An analyzer owns one happens-before engine (Table 1) and any
    combination of attached detectors:

    - {b rd2} — the commutativity race detector of Algorithm 1, fed by
      [Call] events (in constant-lookup or linear-scan mode);
    - {b direct} — the naive specification-level detector (Section 5.1);
    - {b fasttrack} / {b djit} — read-write detectors fed by
      [Read]/[Write] events;
    - {b atomicity} — the access-point atomicity checker.

    It is fed one event at a time through {!step} (or {!sink}, shaped for
    [Sched.run ~sink]) from any source — an mmap'd trace file, the text
    format, a server session, a journal replay, a live schedule — and
    {!finish}ed once the source ends. The source is never held in
    memory.

    With [jobs = 1] the detectors are one inline bundle stepped in the
    caller's domain. With [jobs > 1] every detector keys its state per
    object (RD2, direct) or per memory location (FastTrack, DJIT+), so
    the stream decomposes: the happens-before pass stays in the caller,
    and each [Call]/[Read]/[Write] event is routed with its clock
    snapshot by object-shard (calls hash on the object identity, reads
    and writes on the location) into per-shard batches of
    {!chunk_events} events, which one detector bundle per shard drains
    on its own OCaml 5 domain, concurrently with the producing pass.

    The merge is deterministic: each event lives in exactly one shard,
    so sorting the per-shard reports by trace index reproduces the
    [jobs = 1] report list {e bit-identically}, and summed counters equal
    the [jobs = 1] ones — see DESIGN.md, "Shard-merge determinism".

    Domains are spawned only once the stream passes
    {!default_parallel_threshold} events (or at once under [force]);
    a shorter stream is drained inline at {!finish} instead and the
    result says [fell_back]. The atomicity checker builds one
    cross-object graph and so always runs in the happens-before pass. *)

open Crd_base
open Crd_trace
open Crd_spec
open Crd_detector
open Crd_fasttrack

type config = {
  rd2 : [ `Off | `Constant | `Linear ];
  direct : bool;
  fasttrack : bool;
  djit : bool;
  atomicity : bool;  (** the access-point atomicity checker *)
}

val default_config : config
(** RD2 in constant mode and FastTrack on; direct and DJIT+ off. *)

type result = {
  events : int;  (** events stepped *)
  shards : int;  (** detector domains used (1 when none was spawned) *)
  fell_back : bool;
      (** [jobs > 1] was asked for, but the stream ended below
          {!default_parallel_threshold} events and was drained inline *)
  config : config;  (** the detector set that produced this result *)
  rd2_reports : Report.t list;  (** in trace order *)
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Crd_atomicity.Atomicity.violation list;
}

val default_parallel_threshold : int
(** Events (100_000) a [jobs > 1] stream must pass before worker domains
    are spawned: below it, domain spawn and handoff overhead would
    dominate. *)

val chunk_events : int
(** Events per handoff chunk (8192): per-shard struct-of-arrays batches
    are filled by the happens-before pass and drained whole by workers,
    so the per-event handoff cost is three array stores. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], capped to 8 — a sensible [--jobs]
    default for offline analysis. *)

type t

val create :
  ?config:config ->
  ?jobs:int ->
  ?force:bool ->
  spec_for:(Obj_id.t -> Spec.t option) ->
  unit ->
  t
(** [spec_for] assigns a commutativity specification to each monitored
    object (objects mapping to [None] are ignored by the commutativity
    detectors). Each distinct specification is translated to its access
    point representation once, the first time a detector needs it;
    [spec_for] is never called concurrently. [jobs] (default 1) is the
    shard count; [force] spawns its domains at once instead of at
    {!default_parallel_threshold} events. *)

val with_stdspecs : ?config:config -> ?jobs:int -> ?force:bool -> unit -> t
(** An analyzer over the built-in specifications, resolved by
    {!Crd_stdspecs.Stdspecs.spec_for}. *)

val step : t -> Event.t -> unit
(** Analyze the next event of the stream.
    @raise Invalid_argument on a malformed event (e.g. a call whose arity
    does not match its object's specification) when [jobs = 1]; with
    [jobs > 1] the same failure comes out of {!finish}. *)

val sink : t -> Event.t -> unit
(** Same as {!step}; shaped for [Sched.run ~sink]. *)

val run_trace : t -> Trace.t -> unit
(** Step every event of a recorded trace. *)

val events : t -> int
(** Events stepped so far. *)

val finish : t -> (result, string) Stdlib.result
(** End the stream: join the shard workers (or drain the buffered
    chunks inline), merge, and fold the run's counters into the
    {!Crd_obs.default} registry ([analyzer_events_total], [rd2_*],
    [shard_runs_total], [shard_fallback_total], ...). A specification
    that fails to translate, or a malformed event met by a shard, is an
    [Error] — the same message at every [jobs]. Idempotent: later calls
    return the same value and publish nothing; step no event after it. *)

val pp_summary : result Fmt.t
(** The one run summary, the same at every [jobs]: [events: N], the RD2
    race count (distinct fingerprints) and same-epoch rate, then one
    line per other attached detector. *)

val pp_summary_with : rd2_distinct:int -> result Fmt.t
(** [pp_summary] for a caller that already holds
    [Report.distinct r.rd2_reports]: the races are not fingerprinted a
    second time. *)
