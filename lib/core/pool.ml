(* One mutex guards the idle list, every helper's [job] slot and every
   fan-out's [pending] count.  A helper waits on its own condition, so a
   hand-off wakes exactly the helper it is for; the caller of a fan-out
   waits on the fan-out's. *)

type failure = (exn * Printexc.raw_backtrace) option

type fanout = {
  mutable pending : int;  (* helpers of this fan-out still running *)
  mutable failure : failure;  (* the first helper exception *)
  finished : Condition.t;
}

type helper = {
  wake : Condition.t;
  mutable job : ((int -> unit) * int * fanout) option;
}

let lock = Mutex.create ()
let idle : helper list ref = ref []

let attempt f i =
  match f i with () -> None | exception e -> Some (e, Printexc.get_raw_backtrace ())

(* A helper's life: wait for a job, run it, park, repeat.  It is back on
   the idle list in the same critical section that signals its fan-out
   done, so a fan-out started right after this one finds it there. *)
let rec serve h =
  Mutex.lock lock;
  while Option.is_none h.job do
    Condition.wait h.wake lock
  done;
  let work, i, fo = Option.get h.job in
  h.job <- None;
  Mutex.unlock lock;
  let failure = attempt work i in
  Mutex.lock lock;
  idle := h :: !idle;
  if Option.is_none fo.failure then fo.failure <- failure;
  fo.pending <- fo.pending - 1;
  if fo.pending = 0 then Condition.signal fo.finished;
  Mutex.unlock lock;
  serve h

let park helpers =
  Mutex.lock lock;
  idle := List.rev_append helpers !idle;
  Mutex.unlock lock

(* [k] helpers: parked ones first, the rest spawned outside the lock. *)
let acquire k =
  Mutex.lock lock;
  let rec take acc k =
    match !idle with
    | h :: rest when k > 0 ->
        idle := rest;
        take (h :: acc) (k - 1)
    | _ -> (acc, k)
  in
  let taken, missing = take [] k in
  Mutex.unlock lock;
  let rec spawn acc missing =
    if missing = 0 then acc
    else
      let h = { wake = Condition.create (); job = None } in
      match Domain.spawn (fun () -> serve h) with
      | _ -> spawn (h :: acc) (missing - 1)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          park acc;
          Printexc.raise_with_backtrace e bt
  in
  spawn taken missing

let run k work =
  if k <= 1 then work 0
  else begin
    let helpers = acquire (k - 1) in
    let fo = { pending = k - 1; failure = None; finished = Condition.create () } in
    Mutex.lock lock;
    List.iteri
      (fun i h ->
        h.job <- Some (work, i, fo);
        Condition.signal h.wake)
      helpers;
    Mutex.unlock lock;
    let own = attempt work (k - 1) in
    (* A [Sys.Break] delivered while waiting must not leave [lock] held. *)
    Mutex.protect lock (fun () ->
        while fo.pending > 0 do
          Condition.wait fo.finished lock
        done);
    match (own, fo.failure) with
    | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end
