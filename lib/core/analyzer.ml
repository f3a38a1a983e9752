open Crd_base
open Crd_trace
open Crd_spec
open Crd_apoint
open Crd_detector
open Crd_fasttrack

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

type t = {
  hb : Hb.t;
  rd2 : Rd2.t option;
  direct : Direct.t option;
  fasttrack : Fasttrack.t option;
  djit : Djit.t option;
  atomicity : Crd_atomicity.Atomicity.t option;
  pool : Crd_vclock.Vclock.Pool.t;
  mutable events : int;
  mutable published : bool;
}

let create ?(config = default_config) ~spec_for () =
  (* Memoize one representation per specification (keyed by name). *)
  let reprs : (string, Repr.t) Hashtbl.t = Hashtbl.create 8 in
  let failure = ref None in
  let repr_for o =
    match spec_for o with
    | None -> None
    | Some spec -> (
        match Hashtbl.find_opt reprs (Spec.name spec) with
        | Some r -> Some r
        | None -> (
            match Repr.of_spec spec with
            | Ok r ->
                Hashtbl.add reprs (Spec.name spec) r;
                Some r
            | Error e ->
                failure :=
                  Some (Printf.sprintf "spec %s: %s" (Spec.name spec) e);
                None))
  in
  (* Pre-translate nothing: specs are resolved per object on first use;
     but surface immediate failures for the common single-spec case by
     noticing them lazily in [step]. To keep the API simple we probe
     nothing here and report translation failures by exception. *)
  let pool = Metrics.create_pool () in
  let rd2 =
    match config.rd2 with
    | `Off -> None
    | (`Constant | `Linear) as mode ->
        Some
          (Rd2.create ~mode ~pool
             ~repr_for:(fun o ->
               let r = repr_for o in
               (match !failure with
               | Some msg -> invalid_arg ("Analyzer: " ^ msg)
               | None -> ());
               r)
             ())
  in
  let direct =
    if config.direct then Some (Direct.create ~spec_for ()) else None
  in
  let atomicity =
    if config.atomicity then
      Some (Crd_atomicity.Atomicity.create ~repr_for ())
    else None
  in
  Ok
    {
      hb = Hb.create ();
      rd2;
      direct;
      fasttrack =
        (if config.fasttrack then Some (Fasttrack.create ~pool ()) else None);
      djit = (if config.djit then Some (Djit.create ()) else None);
      atomicity;
      pool;
      events = 0;
      published = false;
    }

let with_stdspecs ?config () =
  let spec_for o =
    let name = Obj_id.name o in
    let base =
      match String.index_opt name ':' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    Crd_stdspecs.Stdspecs.find base
  in
  match create ?config ~spec_for () with
  | Ok t -> t
  | Error e -> invalid_arg ("Analyzer.with_stdspecs: " ^ e)

let step t (e : Event.t) =
  let index = t.events in
  t.events <- index + 1;
  Crd_obs.Counter.incr Metrics.events_total;
  let vc = Hb.step t.hb e in
  (match t.atomicity with
  | Some a -> ignore (Crd_atomicity.Atomicity.step a ~index e)
  | None -> ());
  match e.op with
  | Event.Call action ->
      (match t.rd2 with
      | Some d -> ignore (Rd2.on_action d ~index e.tid action vc)
      | None -> ());
      (match t.direct with
      | Some d -> ignore (Direct.on_action d ~index e.tid action vc)
      | None -> ())
  | Event.Read loc ->
      (match t.fasttrack with
      | Some d -> ignore (Fasttrack.on_read d ~index e.tid loc vc)
      | None -> ());
      (match t.djit with
      | Some d -> ignore (Djit.on_read d ~index e.tid loc vc)
      | None -> ())
  | Event.Write loc ->
      (match t.fasttrack with
      | Some d -> ignore (Fasttrack.on_write d ~index e.tid loc vc)
      | None -> ());
      (match t.djit with
      | Some d -> ignore (Djit.on_write d ~index e.tid loc vc)
      | None -> ())
  | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _
  | Event.Begin | Event.End ->
      ()

let sink t e = step t e
let run_trace t trace = Trace.iter_events trace ~f:(step t)
let events t = t.events

let rd2_races t = match t.rd2 with Some d -> Rd2.races d | None -> []
let rd2_stats t = Option.map Rd2.stats t.rd2
let direct_races t = match t.direct with Some d -> Direct.races d | None -> []
let direct_stats t = Option.map Direct.stats t.direct

let fasttrack_races t =
  match t.fasttrack with Some d -> Fasttrack.races d | None -> []

let fasttrack_stats t = Option.map Fasttrack.stats t.fasttrack
let djit_races t = match t.djit with Some d -> Djit.races d | None -> []

let publish_stats t =
  if not t.published then begin
    t.published <- true;
    Metrics.publish_pool t.pool;
    match t.rd2 with
    | Some d -> Metrics.publish_rd2 (Rd2.stats d)
    | None -> ()
  end

let atomicity_violations t =
  match t.atomicity with
  | Some a -> Crd_atomicity.Atomicity.violations a
  | None -> []

let pp_summary_with ~rd2_distinct ppf t =
  Fmt.pf ppf "@[<v>events: %d@," t.events;
  (match t.rd2 with
  | Some d ->
      Fmt.pf ppf "rd2: %d races (%d distinct)@,"
        (List.length (Rd2.races d))
        rd2_distinct
  | None -> ());
  (match t.direct with
  | Some d ->
      let races = Direct.races d in
      Fmt.pf ppf "direct: %d races (%d distinct)@," (List.length races)
        (Report.distinct races)
  | None -> ());
  (match t.fasttrack with
  | Some d ->
      let races = Fasttrack.races d in
      Fmt.pf ppf "fasttrack: %d races (%d distinct locations)@,"
        (List.length races)
        (Rw_report.distinct_locations races)
  | None -> ());
  (match t.djit with
  | Some d ->
      let races = Djit.races d in
      Fmt.pf ppf "djit: %d races (%d distinct locations)@," (List.length races)
        (Rw_report.distinct_locations races)
  | None -> ());
  (match t.atomicity with
  | Some a ->
      Fmt.pf ppf "atomicity: %d violation(s)@,"
        (List.length (Crd_atomicity.Atomicity.violations a))
  | None -> ());
  Fmt.pf ppf "@]"

let pp_summary ppf t =
  pp_summary_with ~rd2_distinct:(Report.distinct (rd2_races t)) ppf t
