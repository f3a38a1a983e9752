(* perfbench — the in-process half of the benchmark driven by run.py.

     perfbench check   --seconds S --out TMP [--jobs N] FILE...
     perfbench predict --seconds S FILE...
     perfbench load    --addr ADDR --threads N --seconds S --seed N
                       [--min-sessions N] [--trace] FILE...
     perfbench calibrate

   [check] and [predict] replay what [rd2 check -v --fingerprints] and
   [rd2 predict] do to CRDW trace files, with a span around every call
   into a layer: busy time, [Gc.minor_words] and counts are summed per
   layer and printed as one JSON object per file per round. Rounds
   repeat over all files until S seconds have passed.

   [load] is the serve-ingest client: N threads each run a closed loop of
   [Client.send_file] sessions against a running [rd2 serve] and print
   one JSON object per session. With [--trace], every other session
   goes through [Client.send_iter] with timers around the producer and
   the reply read instead, so the two kinds of session in one run give
   the tracing overhead. *)

open Crd

let now = Unix.gettimeofday
let words = Gc.minor_words

(* All-float so that updating a field stores the float unboxed: the
   spans themselves must not allocate on the per-event path. *)
type acc = {
  mutable wire_s : float;
  mutable wire_w : float;
  mutable hb_s : float;
  mutable hb_w : float;
  mutable hb_n : float;
  mutable translate_s : float;
  mutable translate_w : float;
  mutable rd2_s : float;
  mutable rd2_w : float;
  mutable racy_calls : float;
  mutable racy_w : float;
  mutable clean_calls : float;
  mutable clean_w : float;
}

let new_acc () =
  {
    wire_s = 0.;
    wire_w = 0.;
    hb_s = 0.;
    hb_w = 0.;
    hb_n = 0.;
    translate_s = 0.;
    translate_w = 0.;
    rd2_s = 0.;
    rd2_w = 0.;
    racy_calls = 0.;
    racy_w = 0.;
    clean_calls = 0.;
    clean_w = 0.;
  }

(* The object-name convention of [rd2 check] without [--spec]. *)
let spec_for o =
  let name = Obj_id.name o in
  let base =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  Stdspecs.find base

let json_field (k, v) = Printf.sprintf "%S: %s" k v
let num f = Printf.sprintf "%.9g" f
let int n = string_of_int n
let str s = Printf.sprintf "%S" s

let print_json fields =
  print_endline ("{" ^ String.concat ", " (List.map json_field fields) ^ "}")

let md5_lines lines =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun l -> l ^ "\n") lines)))

(* As [rd2 check -v] prints: one flushed line per report on a channel. *)
let write_reports ~out reports =
  Out_channel.with_open_bin out (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      List.iter (fun r -> Fmt.pf ppf "%a@." Report.pp r) reports)

(* MD5 and length of a file. *)
let digest_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  (Digest.to_hex (Digest.string text), String.length text)

let decode acc path =
  let t0 = now () and w0 = words () in
  let trace =
    match Bigwire.of_file path with
    | Ok t -> t
    | Error e -> failwith (path ^ ": " ^ e)
  in
  acc.wire_s <- acc.wire_s +. (now () -. t0);
  acc.wire_w <- acc.wire_w +. (words () -. w0);
  trace

let check_config =
  {
    Analyzer.rd2 = `Constant;
    direct = false;
    fasttrack = false;
    djit = false;
    atomicity = false;
  }

(* One [rd2 check -v --fingerprints] over [path]: decode, then HB and
   RD2 per event (as [Analyzer.step] interleaves them), then render and
   fingerprint the reports. [shard_jobs > 0] also runs [Shard.analyze]
   once, outside the pipeline, as the parallel oracle. *)
let check_file ~out ~round ~shard_jobs path =
  let acc = new_acc () in
  let trace = decode acc path in
  let reprs = Hashtbl.create 8 in
  let repr_for o =
    match spec_for o with
    | None -> None
    | Some spec -> (
        let name = Spec.name spec in
        match Hashtbl.find_opt reprs name with
        | Some r -> Some r
        | None -> (
            let t0 = now () and w0 = words () in
            let r = Repr.of_spec spec in
            acc.translate_s <- acc.translate_s +. (now () -. t0);
            acc.translate_w <- acc.translate_w +. (words () -. w0);
            match r with
            | Ok r ->
                Hashtbl.add reprs name r;
                Some r
            | Error e -> failwith (Printf.sprintf "spec %s: %s" name e)))
  in
  let rd2 =
    Rd2.create ~mode:`Constant
      ~pool:(Vclock.Pool.create ~capacity:1024 ())
      ~repr_for ()
  in
  let hb = Hb.create () in
  let t_start = now () in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let t0 = now () in
      let w0 = words () in
      let vc = Hb.step hb e in
      let t1 = now () in
      let w1 = words () in
      acc.hb_s <- acc.hb_s +. (t1 -. t0);
      acc.hb_w <- acc.hb_w +. (w1 -. w0);
      acc.hb_n <- acc.hb_n +. 1.;
      match e.op with
      | Event.Call action ->
          let reports = Rd2.on_action rd2 ~index e.tid action vc in
          let t2 = now () in
          let w2 = words () in
          acc.rd2_s <- acc.rd2_s +. (t2 -. t1);
          acc.rd2_w <- acc.rd2_w +. (w2 -. w1);
          if reports = [] then begin
            acc.clean_calls <- acc.clean_calls +. 1.;
            acc.clean_w <- acc.clean_w +. (w2 -. w1)
          end
          else begin
            acc.racy_calls <- acc.racy_calls +. 1.;
            acc.racy_w <- acc.racy_w +. (w2 -. w1)
          end
      | _ -> ());
  let t0 = now () and w0 = words () in
  let races = Rd2.races rd2 in
  write_reports ~out races;
  let render_s = now () -. t0 and render_w = words () -. w0 in
  let lines_md5, render_bytes = digest_file out in
  let t0 = now () and w0 = words () in
  let distinct = Report.distinct races in
  let fps =
    List.sort_uniq String.compare (List.map Report.fingerprint_hex races)
  in
  let fingerprint_s = now () -. t0 and fingerprint_w = words () -. w0 in
  let total_s = now () -. t_start +. acc.wire_s in
  let st = Rd2.stats rd2 in
  let shard =
    if shard_jobs <= 0 then []
    else
      let t0 = now () in
      match
        Shard.analyze ~jobs:shard_jobs ~force:true ~config:check_config
          ~spec_for trace
      with
      | Error e -> failwith ("shard: " ^ e)
      | Ok res ->
          let shard_s = now () -. t0 in
          let reports = res.Shard.rd2_reports in
          [
            ("shard_s", num shard_s);
            ("shard_jobs", int shard_jobs);
            ("shard_events", int res.Shard.events);
            ( "shard_lines_md5",
              str
                (write_reports ~out reports;
                 fst (digest_file out)) );
            ( "shard_fps_md5",
              str
                (md5_lines
                   (List.sort_uniq String.compare
                      (List.map Report.fingerprint_hex reports)))
            );
          ]
  in
  print_json
    ([
       ("round", int round);
       ("file", str path);
       ("events", int (Trace.length trace));
       ("hb_events", num acc.hb_n);
       ("calls", num (acc.racy_calls +. acc.clean_calls));
       ("races", int (List.length races));
       ("distinct", int distinct);
       ("lines_md5", str lines_md5);
       ("fps_md5", str (md5_lines fps));
       ("total_s", num total_s);
       ("wire_s", num acc.wire_s);
       ("wire_w", num acc.wire_w);
       ("hb_s", num acc.hb_s);
       ("hb_w", num acc.hb_w);
       ("translate_s", num acc.translate_s);
       (* Translation runs inside the first [on_action] of each spec:
          RD2 figures are self time, with the translate child removed. *)
       ("rd2_s", num (acc.rd2_s -. acc.translate_s));
       ("rd2_w", num (acc.rd2_w -. acc.translate_w));
       ("rd2_actions", int st.Rd2.actions);
       ("rd2_lookups", int st.Rd2.lookups);
       ("rd2_same_epoch", int st.Rd2.same_epoch);
       ("racy_calls", num acc.racy_calls);
       ("racy_w", num acc.racy_w);
       ("clean_calls", num acc.clean_calls);
       ("clean_w", num acc.clean_w);
       ("render_s", num render_s);
       ("render_w", num render_w);
       ("render_bytes", int render_bytes);
       ("fingerprint_s", num fingerprint_s);
       ("fingerprint_w", num fingerprint_w);
     ]
    @ shard)

(* One [rd2 predict] over [path]: decode, the predictive pass, and the
   witnessed-distinct count it prints. *)
let predict_file ~round path =
  let acc = new_acc () in
  let t_start = now () in
  let trace = decode acc path in
  let t0 = now () and w0 = words () in
  let res =
    match Predict.analyze ~spec_for trace with
    | Ok r -> r
    | Error e -> failwith ("predict: " ^ e)
  in
  let predict_s = now () -. t0 and predict_w = words () -. w0 in
  let t0 = now () in
  let distinct =
    List.length
      (List.sort_uniq Int64.compare
         (List.map Report.fingerprint res.Predict.witnessed))
  in
  let fingerprint_s = now () -. t0 in
  let s = res.Predict.stats in
  print_json
    [
      ("round", int round);
      ("file", str path);
      ("events", int (Trace.length trace));
      ("predict_events", int s.Predict.events);
      ("calls", int s.Predict.calls);
      ("witnessed", int (List.length res.Predict.witnessed));
      ("witnessed_distinct", int distinct);
      ("predicted", int (List.length res.Predict.predicted));
      ("candidates", int s.Predict.candidates);
      ("closures", int s.Predict.closures);
      ("capped", int s.Predict.capped);
      ("total_s", num (now () -. t_start));
      ("wire_s", num acc.wire_s);
      ("wire_w", num acc.wire_w);
      ("predict_s", num predict_s);
      ("predict_w", num predict_w);
      ("fingerprint_s", num fingerprint_s);
    ]

let rounds ~seconds f files =
  let deadline = now () +. seconds in
  let round = ref 0 in
  while !round = 0 || now () < deadline do
    List.iter (f ~round:!round) files;
    incr round
  done

(* ------------------------------------------------------------------ *)
(* load                                                                *)
(* ------------------------------------------------------------------ *)

let reply_summary reply =
  let lines = String.split_on_char '\n' reply in
  let events =
    List.find_map (fun l -> Scanf.sscanf_opt l "events: %d" Fun.id) lines
  in
  let races =
    List.filter (String.starts_with ~prefix:"commutativity race") lines
  in
  (Option.value events ~default:(-1), List.length races, md5_lines races)

let load ~addr ~threads ~seconds ~min_sessions ~seed ~trace files =
  let addr =
    match Crd_server.Server.addr_of_string addr with
    | Ok a -> a
    | Error e -> failwith e
  in
  let files = Array.of_list files in
  let mu = Mutex.create () in
  let rows = ref [] in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let started = Atomic.make 0 in
  let last_done = ref t_start in
  let client i =
    let rng = Random.State.make [| seed; i |] in
    let order = Array.copy files in
    for k = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (k + 1) in
      let x = order.(k) in
      order.(k) <- order.(j);
      order.(j) <- x
    done;
    let k = ref 0 in
    while now () < deadline || Atomic.get started < min_sessions do
      Atomic.incr started;
      let file = order.(!k mod Array.length order) in
      (* Alternate whole passes over the files, so that traced and
         untraced sessions see the same inputs. *)
      let traced = trace && !k / Array.length order mod 2 = 0 in
      incr k;
      let t0 = now () in
      let stream_s = ref 0. and streamed_at = ref 0. in
      let result =
        if traced then
          Crd_server.Client.send_iter ~addr (fun push ->
              let p0 = now () in
              let r =
                try Bigwire.iter_file file ~f:push with Sys_error m -> Error m
              in
              streamed_at := now ();
              stream_s := !streamed_at -. p0;
              r)
        else Crd_server.Client.send_file ~addr ~format:`Bin file
      in
      let t1 = now () in
      let fields =
        match result with
        | Error e -> [ ("ok", "false"); ("error", str e) ]
        | Ok reply ->
            let events, races, md5 = reply_summary reply in
            [
              ("ok", "true");
              ("events", int events);
              ("races", int races);
              ("lines_md5", str md5);
            ]
      in
      let traced_fields =
        if traced then
          [
            ("stream_s", num !stream_s);
            ("reply_wait_s", num (t1 -. !streamed_at));
          ]
        else []
      in
      let row =
        [
          ("file", str file);
          ("thread", int i);
          ("traced", string_of_bool traced);
          ("latency_s", num (t1 -. t0));
        ]
        @ fields @ traced_fields
      in
      Mutex.lock mu;
      rows := row :: !rows;
      if t1 > !last_done then last_done := t1;
      Mutex.unlock mu
    done
  in
  let ths = List.init threads (fun i -> Thread.create client i) in
  List.iter Thread.join ths;
  List.iter print_json (List.rev !rows);
  print_json [ ("elapsed_s", num (!last_done -. t_start)) ]

(* ------------------------------------------------------------------ *)
(* calibrate                                                           *)
(* ------------------------------------------------------------------ *)

(* A fixed piece of work that calls no code of the repository, of the
   kinds a check does: small blocks that die young, lists that survive
   into the major heap, hash table updates, random reads and writes over
   a 16 MB array, MD5 and formatting. run.py times it between the
   workload's processes to measure how fast the host runs at the moment. *)
let calibrate () =
  let big = Array.make (2 * 1024 * 1024) 0 in
  let mask = Array.length big - 1 in
  let tbl = Hashtbl.create 1024 in
  let buf = Buffer.create 4096 in
  let sum = ref 0 in
  for i = 0 to 399_999 do
    let h = i * 2654435761 land mask in
    sum := !sum + big.(h);
    big.(h * 31 land mask) <- i;
    let k = i * 7919 land 0xffff in
    let prev = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
    Hashtbl.replace tbl k ((i, string_of_int i) :: prev);
    if i mod 3 = 0 then begin
      Printf.bprintf buf "race %d at %d: %s\n" i k
        (Digest.to_hex (Digest.string (string_of_int i)));
      if Buffer.length buf > 4000 then Buffer.clear buf
    end
  done;
  Printf.printf "%d\n" (!sum land 1)

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let usage =
    "perfbench (check|predict|load) [options] FILE...  (driven by \
     perfbench/run.py)"
  in
  let seconds = ref 1. and jobs = ref 0 and addr = ref "" in
  let threads = ref 1 and seed = ref 0 and trace = ref false in
  let out = ref "" and min_sessions = ref 0 in
  let args = ref [] in
  let spec =
    [
      ("--seconds", Arg.Set_float seconds, "S  measure for S seconds");
      ( "--out",
        Arg.Set_string out,
        "FILE  file the rendered reports are written to (check)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N  also run Shard.analyze at N jobs, once (check)" );
      ("--addr", Arg.Set_string addr, "ADDR  server address (load)");
      ("--threads", Arg.Set_int threads, "N  client threads (load)");
      ( "--min-sessions",
        Arg.Set_int min_sessions,
        "N  run past S seconds until N sessions started (load)" );
      ("--seed", Arg.Set_int seed, "N  session order seed (load)");
      ("--trace", Arg.Set trace, " time producer and reply read (load)");
    ]
  in
  Arg.parse spec (fun a -> args := a :: !args) usage;
  match List.rev !args with
  | "check" :: (_ :: _ as files) when !out <> "" ->
      rounds ~seconds:!seconds
        (fun ~round path ->
          check_file ~out:!out ~round
            ~shard_jobs:(if round = 0 then !jobs else 0)
            path)
        files
  | "predict" :: (_ :: _ as files) ->
      rounds ~seconds:!seconds predict_file files
  | "load" :: (_ :: _ as files) ->
      load ~addr:!addr ~threads:!threads ~seconds:!seconds
        ~min_sessions:!min_sessions ~seed:!seed ~trace:!trace files
  | [ "calibrate" ] -> calibrate ()
  | _ ->
      Arg.usage spec usage;
      exit 2
