(** Bounded blocking queues — the per-connection backpressure primitive.

    [push] blocks while the queue is at capacity, which stops the
    session's socket reader, which fills the kernel receive buffer,
    which blocks the client's [write]: end-to-end backpressure with
    O(capacity) server-side memory per connection.

    Hot sessions should prefer the sliced variants ({!push_slice},
    {!pop_batch}): one mutex round per burst instead of per element,
    with the sizes of the batches {!pop_batch} takes observed into the
    [bqueue_batch_size] histogram (once per event: pushes are not
    observed).

    A queue created with [?weight] charges each enqueued element's
    weight into the process-wide [mem_queue_bytes] gauge and releases
    it on {!pop}/{!pop_batch}/{!discard} — one leg of the overload
    controller's memory accounting (see {!Overload}). *)

type 'a t

val create :
  ?fault:Crd_fault.point -> ?weight:('a -> int) -> capacity:int -> unit -> 'a t
(** [fault] names a {!Crd_fault} injection point consulted on every
    {!push} and non-empty {!push_slice} (not {!push_raw}), so tests and
    chaos runs can make any queue fail deterministically. [weight]
    gives each element's byte cost for [mem_queue_bytes] accounting;
    it is called once on enqueue and once on dequeue and must be pure.
    @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** Block until there is room, then enqueue; [false] if the queue was
    closed (the element is dropped).
    @raise Crd_fault.Injected when the queue's fault point fires (the
    element is not enqueued). *)

val push_raw : 'a t -> 'a -> bool
(** {!push} without consulting the fault point. Error items that report
    a fault must not themselves be faulted away. *)

val push_slice : 'a t -> 'a array -> int -> int -> int
(** [push_slice t xs pos len] enqueues [xs.(pos .. pos+len-1)] in
    order, blocking as needed; the slice may exceed the queue capacity
    (it is admitted in capacity-sized sub-slices while consumers
    drain). Returns how many elements were accepted — short only if the
    queue is closed mid-slice.
    @raise Crd_fault.Injected when the fault point fires (no element
    is enqueued).
    @raise Invalid_argument on an invalid slice. *)

val pop : 'a t -> 'a option
(** Block until an element is available; [None] once the queue is
    closed {e and} drained. *)

val pop_batch : 'a t -> max:int -> 'a array
(** Block until at least one element is available, then return up to
    [max] elements without further blocking. [[||]] once the queue is
    closed {e and} drained.
    @raise Invalid_argument if [max < 1]. *)

val close : 'a t -> unit
(** Wake all blocked producers and consumers. Idempotent. *)

val discard : 'a t -> int
(** Drop everything still queued (releasing its accounted weight) and
    return how many elements were dropped. For error paths: a session
    abandoned mid-drain must not leak [mem_queue_bytes]. *)

val length : 'a t -> int
