(** The process's helper domains: every fan-out in [minup] runs on them.

    A helper is spawned the first time a fan-out needs one more than are
    parked, then kept for the life of the process: after its share of a
    fan-out it parks (blocked on a condition variable, never spinning)
    until the next one takes it.  So back-to-back fan-outs spawn nothing,
    and the pool's size is the peak number of helpers that fan-outs
    running at once have asked for — [jobs - 1] for one at a time, more
    when batches run concurrently or nest (a task that itself fans out
    takes further helpers and never waits for a busy one).  There is no
    setting: the pool follows its callers. *)

(** [run k work] runs [work 0 .. work (k - 2)] on [k - 1] helpers and
    [work (k - 1)] on the calling domain, and returns once all [k] calls
    have returned.  [k <= 1] runs [work 0] inline and takes no helper.

    An exception out of any call is never swallowed: it is re-raised
    with its backtrace once every call of this [run] has finished — the
    caller's own first, else the first helper's to finish.

    If spawning a helper fails, the helpers already taken are parked
    again and the spawn's exception is raised before any [work] call
    starts. *)
val run : int -> (int -> unit) -> unit
