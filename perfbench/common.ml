(* Shared plumbing of the benchmark: clocks, order statistics, the result
   record every workload fills in, and the span wrapper that marks a call
   into one layer of the program. *)

module Clock = Minup_obs.Clock
module Trace = Minup_obs.Trace

let now_ns = Clock.now_ns
let elapsed_ns t0 = Int64.to_float (Clock.elapsed_ns ~since:t0)
let ms_of_ns ns = ns /. 1e6

(* [quantile q xs] — nearest-rank quantile; 0 on an empty sample. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) rank))
  end

let median xs = quantile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0. xs

(* Run [f] [reps] times and return the median wall time in ns and the
   last result. *)
let time_median ~reps f =
  let last = ref None in
  let times =
    Array.init reps (fun _ ->
        let t0 = now_ns () in
        last := Some (f ());
        elapsed_ns t0)
  in
  (median times, Option.get !last)

(* Words allocated in the minor heap while [f] runs — exact and repeatable
   for a given input, unlike a time. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

(* [span ~rid name f] — [f ()] inside a benchmark span named
   "<layer>.<function>", tagged with the request it belongs to.  With
   tracing off this is exactly [f ()]. *)
let span ~rid name f =
  Trace.with_span ~cat:"bench" ~args:[ ("rid", Trace.Int rid) ] name f

(* Fails the run: an output did not match its check. *)
exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

let ok_or_mismatch what pp = function
  | Ok v -> v
  | Error e -> mismatch "%s: %s" what (Format.asprintf "%a" pp e)

(* What a timed run measured.  Times are calibrated (see below) unless
   named raw. *)
type timed = {
  latencies_ns : float array;  (** one sample per request *)
  raw_latencies_ns : float array;  (** the same, as measured *)
  opens_ns : float array;  (** one sample per open (see each workload) *)
  busy_ns : float;  (** time spent in the closed loop's steps *)
  speed : float;  (** median calibration factor over the loop's steps *)
  heap_mb : float;  (** top heap size when the loop ends *)
  attempted : int;  (** operations sent *)
  failed : int;  (** operations with an unexpected reply or a failed check *)
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* --- host-speed calibration ------------------------------------------

   On a shared machine the speed of this allocation-heavy code drifts by
   up to 1.5x over seconds to minutes as other tenants come and go, and
   the median of a run moves with it.  So a fixed reference kernel runs
   before and after every timed piece of work, and the work's time is
   scaled by [reference_ns] over the mean of those two kernel times: a
   calibrated time reads as milliseconds on a machine where one kernel
   measurement takes [reference_ns], about what it takes on a quiet
   2 GHz Xeon.

   The kernel is list, sort and hash-table work small enough for the
   minor heap, and each of its runs starts just after a minor collection,
   so no collection runs inside it: its time depends on the machine, not
   on the program or the program's heap.  On six runs of
   classify-acyclic in a noisy period, calibration took the spread of the
   p50 across runs from 11% of the median to 2%, and of the p90 from 16%
   to 5%. *)

let kernel_once () =
  let l = List.sort compare (List.init 2_000 (fun i -> i * 7_919 mod 10_007)) in
  let h = Hashtbl.create 256 in
  List.iter (fun x -> Hashtbl.replace h (x land 255) (x, x)) l;
  h

let kernel_reps = 10
let reference_ns = 2e6

(* One kernel measurement: the summed time of [kernel_reps] runs. *)
let kernel_ns () =
  let t = ref 0. in
  for _ = 1 to kernel_reps do
    Gc.minor ();
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (kernel_once ()));
    t := !t +. elapsed_ns t0
  done;
  !t

(* The kernel time before the next piece of work. *)
type calibration = { mutable kernel_before : float }

let calibration () = { kernel_before = kernel_ns () }

(* Call right after a timed piece of work: the factor that turns its
   measured time into a calibrated one. *)
let scale_after c =
  let k = kernel_ns () in
  let s = reference_ns /. ((c.kernel_before +. k) /. 2.) in
  c.kernel_before <- k;
  s

(* Run [f] at least [min_reps] and at most [max_reps] times, and until
   [min_ns] have passed; return the median calibrated time in ns and the
   last result.  A fast [f] gets more runs, so its median is as steady as
   a slow one's. *)
let time_median_calibrated ~min_reps ~max_reps ~min_ns f =
  let c = calibration () and t0 = now_ns () in
  let rec go times last =
    let n = List.length times in
    if n >= max_reps || (n >= min_reps && elapsed_ns t0 >= min_ns) then
      (median (Array.of_list times), Option.get last)
    else begin
      let t1 = now_ns () in
      let r = f () in
      let dt = elapsed_ns t1 in
      go ((dt *. scale_after c) :: times) (Some r)
    end
  in
  go [] None

type loop = {
  scale : float array;  (** per step: its calibration factor *)
  busy_ns : float;  (** calibrated time spent in the steps *)
  steps : int;
  loop_heap_mb : float;
}

(* The closed loop: call [step i] for i = 0, 1, … until [seconds] have
   passed, at least 100 latency samples exist (so p90 has ten samples
   beyond it) and the number of steps is a multiple of [round], but for
   no more than two minutes.  A workload that cycles through a fixed
   sequence of steps passes its length as [round], so every run covers
   whole cycles and measures the same mix.  [step] returns [true] when
   its call was a request that produced a latency sample.

   Before each step, and outside its timing, the heap gets a full major
   collection.  Without it a request pays, at random, for garbage that
   earlier requests left, and the median of one run drifted from the
   next by about 15% on an unchanged program.  A `solve` or `batch` process starts
   from an empty heap, so the request it times is the one a user waits
   for.  After each step the kernel runs to calibrate it.  The heap is
   read as the loop ends, before any output check runs. *)
let closed_loop ?(round = 1) ~seconds step =
  let min_requests = 100 and cap = 120e9 in
  let t0 = now_ns () in
  let limit = float_of_int seconds *. 1e9 in
  let requests = ref 0 and i = ref 0 and busy = ref 0. and scales = ref [] in
  let c = calibration () in
  while
    let e = elapsed_ns t0 in
    (e < limit || !requests < min_requests || !i mod round <> 0) && e < cap
  do
    Gc.full_major ();
    let t1 = now_ns () in
    if step !i then incr requests;
    let dt = elapsed_ns t1 in
    let s = scale_after c in
    scales := s :: !scales;
    busy := !busy +. (dt *. s);
    incr i
  done;
  {
    scale = Array.of_list (List.rev !scales);
    busy_ns = !busy;
    steps = !i;
    loop_heap_mb = peak_heap_mb ();
  }

(* Samples recorded as (step, measured ns): calibrated, and as measured. *)
let calibrated loop samples =
  Array.of_list (List.rev_map (fun (i, ns) -> ns *. loop.scale.(i)) samples)

let raw samples = Array.of_list (List.rev_map snd samples)

(* The result of a timed run, from its loop and its (step, ns) samples. *)
let timed_of loop ~lat ~opens ~attempted ~failed =
  {
    latencies_ns = calibrated loop lat;
    raw_latencies_ns = raw lat;
    opens_ns = calibrated loop opens;
    busy_ns = loop.busy_ns;
    speed = median loop.scale;
    heap_mb = loop.loop_heap_mb;
    attempted;
    failed;
  }
