(* Unit tests for the bounded blocking queue underpinning session
   backpressure: FIFO order, the capacity bound actually blocking
   producers, and close waking everyone with the documented returns. *)

module Bqueue = Crd_server.Bqueue

let fifo_order () =
  let q = Bqueue.create ~capacity:8 () in
  List.iter (fun i -> assert (Bqueue.push q i)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Bqueue.length q);
  let popped = List.init 4 (fun _ -> Option.get (Bqueue.pop q)) in
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4 ] popped;
  Alcotest.(check int) "drained" 0 (Bqueue.length q)

let capacity_rejected () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bqueue.create: capacity must be >= 1") (fun () ->
      ignore (Bqueue.create ~capacity:0 ()))

let close_semantics () =
  let q = Bqueue.create ~capacity:4 () in
  assert (Bqueue.push q "a");
  assert (Bqueue.push q "b");
  Bqueue.close q;
  Bqueue.close q (* idempotent *);
  Alcotest.(check bool) "push after close" false (Bqueue.push q "c");
  Alcotest.(check (option string)) "drain survives close" (Some "a")
    (Bqueue.pop q);
  Alcotest.(check (option string)) "drain survives close" (Some "b")
    (Bqueue.pop q);
  Alcotest.(check (option string)) "closed and drained" None (Bqueue.pop q)

(* A producer pushing past capacity must block until the consumer makes
   room; every element still arrives exactly once, in order. *)
let producer_blocks_at_capacity () =
  let n = 1000 in
  let q = Bqueue.create ~capacity:4 () in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to n do
          assert (Bqueue.push q i)
        done;
        Bqueue.close q)
      ()
  in
  let got = ref [] in
  let rec drain () =
    match Bqueue.pop q with
    | None -> ()
    | Some v ->
        Alcotest.(check bool)
          "capacity bound holds" true
          (Bqueue.length q <= 4);
        got := v :: !got;
        drain ()
  in
  drain ();
  Thread.join producer;
  Alcotest.(check (list int)) "all elements, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !got)

(* close must wake a producer blocked on a full queue (push -> false)
   and a consumer blocked on an empty one (pop -> None) — this is how a
   dying session releases its reader thread. *)
let close_wakes_blocked () =
  let q = Bqueue.create ~capacity:1 () in
  assert (Bqueue.push q 0);
  let blocked_push = ref None in
  let producer = Thread.create (fun () -> blocked_push := Some (Bqueue.push q 1)) () in
  Thread.delay 0.05;
  Alcotest.(check (option bool)) "producer is blocked" None !blocked_push;
  Bqueue.close q;
  Thread.join producer;
  Alcotest.(check (option bool)) "blocked push returns false" (Some false)
    !blocked_push;
  let q2 = Bqueue.create ~capacity:1 () in
  let blocked_pop = ref (Some 42) in
  let consumer = Thread.create (fun () -> blocked_pop := Bqueue.pop q2) () in
  Thread.delay 0.05;
  Bqueue.close q2;
  Thread.join consumer;
  Alcotest.(check (option int)) "blocked pop returns None" None !blocked_pop

(* The optional fault point makes push fail deterministically — the
   hook the server's chaos tests hang queue corruption on — while
   push_raw stays fault-free for delivering error items. *)
let fault_injection () =
  match Crd_fault.configure "qp_test=nth:2" with
  | Error e -> Alcotest.failf "configure: %s" e
  | Ok () ->
      Fun.protect ~finally:Crd_fault.reset (fun () ->
          let q =
            Bqueue.create ~fault:(Crd_fault.point "qp_test") ~capacity:4 ()
          in
          assert (Bqueue.push q 1);
          (match Bqueue.push q 2 with
          | _ -> Alcotest.fail "second push did not fault"
          | exception Crd_fault.Injected "qp_test" -> ());
          Alcotest.(check bool) "push_raw bypasses the fault" true
            (Bqueue.push_raw q 2);
          Alcotest.(check int) "faulted element was not enqueued" 2
            (Bqueue.length q);
          Alcotest.(check bool) "later pushes recover" true (Bqueue.push q 3))

(* [bqueue_batch_size] is observed where batches are taken, never where
   they are handed over, so across a session its sum is the number of
   events that went through the queue — not twice that. *)
let batch_sum_counts_events_once () =
  let h =
    Crd_obs.histogram
      ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]
      "bqueue_batch_size"
  in
  let sum0 = Crd_obs.Histogram.sum h in
  let n = 1000 in
  let q = Bqueue.create ~capacity:64 () in
  let producer =
    Thread.create
      (fun () ->
        let xs = Array.init n Fun.id in
        let pushed = ref 0 in
        while !pushed < n do
          let len = min 300 (n - !pushed) in
          pushed := !pushed + Bqueue.push_slice q xs !pushed len
        done;
        Bqueue.close q)
      ()
  in
  let popped = ref 0 in
  let rec drain () =
    let b = Bqueue.pop_batch q ~max:256 in
    if Array.length b > 0 then begin
      popped := !popped + Array.length b;
      drain ()
    end
  in
  drain ();
  Thread.join producer;
  Alcotest.(check int) "every event popped" n !popped;
  Alcotest.(check (float 1e-6))
    "batch-size sum = events pushed" (float_of_int n)
    (Crd_obs.Histogram.sum h -. sum0)

let suite =
  ( "bqueue",
    [
      Alcotest.test_case "FIFO order" `Quick fifo_order;
      Alcotest.test_case "capacity < 1 rejected" `Quick capacity_rejected;
      Alcotest.test_case "close semantics" `Quick close_semantics;
      Alcotest.test_case "producer blocks at capacity" `Quick
        producer_blocks_at_capacity;
      Alcotest.test_case "close wakes blocked threads" `Quick
        close_wakes_blocked;
      Alcotest.test_case "fault point injects on push" `Quick fault_injection;
      Alcotest.test_case "batch-size sum counts events once" `Quick
        batch_sum_counts_events_once;
    ] )
