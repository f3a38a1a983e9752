(* The synthetic workload generator and the chunked parallel analysis:
   determinism of generation, bit-identical reports across shard counts
   and against the live analyzer, the sequential fallback, and the
   vector-clock pool arena. *)

open Crd
module Synth = Crd_workloads.Synth

let gen ?(seed = 5L) ?(threads = 4) ?(objects = 64) ?skew ?mix
    ?(sync_period = 16) events =
  let c = Synth.default ~events in
  let c =
    {
      c with
      Synth.threads;
      objects;
      sync_period;
      skew = Option.value skew ~default:c.Synth.skew;
      mix = Option.value mix ~default:c.Synth.mix;
    }
  in
  Synth.generate ~seed c

let all_specs_mix = List.map (fun s -> (s, 1)) Synth.known_specs

let deterministic () =
  let a = gen 5_000 and b = gen 5_000 in
  Alcotest.(check int) "exact count" 5_000 (Trace.length a);
  Alcotest.(check bool) "same seed, same trace" true
    (List.for_all2 Event.equal (Trace.to_list a) (Trace.to_list b));
  let c = gen ~seed:6L 5_000 in
  Alcotest.(check bool) "different seed, different trace" false
    (List.for_all2 Event.equal (Trace.to_list a) (Trace.to_list c))

let exact_counts () =
  (* Structural events clamp so tiny requests still come out exact. *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "events=%d" n)
        n
        (Trace.length (gen ~threads:8 n)))
    [ 1; 2; 3; 7; 100; 8_192; 8_193 ]

let parsers () =
  (match Synth.skew_of_string "zipf:1.25" with
  | Ok (Synth.Zipf t) -> Alcotest.(check (float 1e-9)) "theta" 1.25 t
  | _ -> Alcotest.fail "zipf:1.25 should parse");
  (match Synth.skew_of_string "uniform" with
  | Ok Synth.Uniform -> ()
  | _ -> Alcotest.fail "uniform should parse");
  Alcotest.(check bool) "bad skew rejected" true
    (Result.is_error (Synth.skew_of_string "pareto"));
  Alcotest.(check bool) "bad zipf rejected" true
    (Result.is_error (Synth.skew_of_string "zipf:-1"));
  (match Synth.mix_of_string "dictionary=2, set=1" with
  | Ok m -> Alcotest.(check bool) "mix" true (m = [ ("dictionary", 2); ("set", 1) ])
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown spec rejected" true
    (Result.is_error (Synth.mix_of_string "tree=1"));
  Alcotest.(check bool) "zero weight rejected" true
    (Result.is_error (Synth.mix_of_string "set=0"))

let analyze ?(jobs = 1) trace =
  let config =
    {
      Analyzer.rd2 = `Constant;
      direct = false;
      fasttrack = true;
      djit = false;
      atomicity = false;
    }
  in
  match
    Shard.analyze ~jobs ~force:true ~config ~spec_for:Stdspecs.spec_for trace
  with
  | Ok res -> res
  | Error e -> Alcotest.fail e

(* The tentpole property: chunked streaming shards produce bit-identical
   reports at every shard count, and both match the live analyzer. The
   40k-event trace makes every shard cross the 8192-event chunk boundary
   at jobs=2, so full chunks, partial final chunks and the close path
   are all exercised. *)
let parallel_matches_sequential () =
  List.iter
    (fun (label, skew, mix) ->
      let trace = gen ~skew ~mix 40_000 in
      let seq = analyze ~jobs:1 trace in
      let live = Analyzer.with_stdspecs () in
      Analyzer.run_trace live trace;
      let live = Result.get_ok (Analyzer.finish live) in
      Alcotest.(check bool)
        (label ^ ": live rd2 == sharded jobs=1")
        true
        (live.rd2_reports = seq.Shard.rd2_reports);
      Alcotest.(check bool)
        (label ^ ": live fasttrack == sharded jobs=1")
        true
        (live.fasttrack_reports = seq.Shard.fasttrack_reports);
      List.iter
        (fun jobs ->
          let par = analyze ~jobs trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d rd2 bit-identical" label jobs)
            true
            (par.Shard.rd2_reports = seq.Shard.rd2_reports);
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d fasttrack bit-identical" label jobs)
            true
            (par.Shard.fasttrack_reports = seq.Shard.fasttrack_reports);
          Alcotest.(check (list string))
            (Printf.sprintf "%s: jobs=%d fingerprints" label jobs)
            (List.map Report.fingerprint_hex seq.Shard.rd2_reports)
            (List.map Report.fingerprint_hex par.Shard.rd2_reports);
          Alcotest.(check int)
            (Printf.sprintf "%s: jobs=%d shards" label jobs)
            jobs par.Shard.shards;
          match (seq.Shard.rd2_stats, par.Shard.rd2_stats) with
          | Some s, Some p ->
              Alcotest.(check int)
                (Printf.sprintf "%s: jobs=%d actions sum" label jobs)
                s.Rd2.actions p.Rd2.actions
          | _ -> Alcotest.fail "missing rd2 stats")
        [ 2; 4 ])
    [
      ("zipf", Synth.Zipf 0.9, Synth.default_mix);
      ("uniform/all-specs", Synth.Uniform, all_specs_mix);
    ]

(* The fallback is decided on the stream: a [jobs > 1] analyzer spawns
   its domains once the stream passes the threshold, and a shorter
   stream is drained inline at [finish]. *)
let fallback () =
  let run ?force jobs trace =
    let an = Analyzer.with_stdspecs ~jobs ?force () in
    Analyzer.run_trace an trace;
    match Analyzer.finish an with Ok res -> res | Error e -> Alcotest.fail e
  in
  let trace = gen 5_000 in
  let small = run 4 trace in
  Alcotest.(check bool) "fell back" true small.fell_back;
  Alcotest.(check int) "one shard" 1 small.shards;
  let forced = run ~force:true 4 trace in
  Alcotest.(check bool) "forced" false forced.fell_back;
  Alcotest.(check int) "four shards" 4 forced.shards;
  Alcotest.(check bool) "reports agree across paths" true
    (small.rd2_reports = forced.rd2_reports);
  let seq = run 1 trace in
  Alcotest.(check bool) "jobs=1 never falls back" false seq.fell_back;
  Alcotest.(check bool) "jobs=1 agrees" true
    (seq.rd2_reports = small.rd2_reports);
  (* Past the threshold plus one round of chunk handoffs per shard. *)
  let long =
    gen (Analyzer.default_parallel_threshold + (4 * Analyzer.chunk_events))
  in
  let sharded = run 2 long in
  Alcotest.(check bool) "above threshold" false sharded.fell_back;
  Alcotest.(check int) "sharded" 2 sharded.shards;
  Alcotest.(check bool) "sharded agrees" true
    ((run 1 long).rd2_reports = sharded.rd2_reports)

(* Detectors fed from a deliberately undersized pool (capacity 1) must
   behave exactly like detectors without a pool: exhaustion grows the
   arena instead of changing results. *)
let pool_exhaustion () =
  let trace = gen ~mix:all_specs_mix 20_000 in
  let repr_cache : (string, Repr.t) Hashtbl.t = Hashtbl.create 8 in
  let repr_for o =
    let name = Obj_id.name o in
    let base =
      match String.index_opt name ':' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    match Stdspecs.find base with
    | None -> None
    | Some spec -> (
        match Hashtbl.find_opt repr_cache (Spec.name spec) with
        | Some r -> Some r
        | None ->
            let r = Result.get_ok (Repr.of_spec spec) in
            Hashtbl.add repr_cache (Spec.name spec) r;
            Some r)
  in
  let run pool =
    let hb = Hb.create () in
    let rd2 = Rd2.create ?pool ~repr_for () in
    let ft = Fasttrack.create ?pool () in
    Trace.iter trace ~f:(fun index (e : Event.t) ->
        let vc = Hb.step hb e in
        match e.op with
        | Event.Call a -> ignore (Rd2.on_action rd2 ~index e.tid a vc)
        | Event.Read loc -> ignore (Fasttrack.on_read ft ~index e.tid loc vc)
        | Event.Write loc -> ignore (Fasttrack.on_write ft ~index e.tid loc vc)
        | _ -> ());
    (Rd2.races rd2, Fasttrack.races ft)
  in
  let plain = run None in
  let pool = Vclock.Pool.create ~capacity:1 () in
  let pooled = run (Some pool) in
  Alcotest.(check bool) "rd2 races identical" true (fst plain = fst pooled);
  Alcotest.(check bool) "fasttrack races identical" true
    (snd plain = snd pooled);
  Alcotest.(check bool) "arena was forced to grow" true
    (Vclock.Pool.grown pool > 0);
  Alcotest.(check bool) "acquisitions happened" true
    (Vclock.Pool.acquired pool > Vclock.Pool.capacity pool)

let suite =
  ( "synth",
    [
      Alcotest.test_case "deterministic generation" `Quick deterministic;
      Alcotest.test_case "exact event counts" `Quick exact_counts;
      Alcotest.test_case "skew and mix parsers" `Quick parsers;
      Alcotest.test_case "parallel == sequential == live" `Quick
        parallel_matches_sequential;
      Alcotest.test_case "sequential fallback" `Quick fallback;
      Alcotest.test_case "pool exhaustion" `Quick pool_exhaustion;
    ] )
