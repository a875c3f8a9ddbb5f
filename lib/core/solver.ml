open Minup_constraints
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Clock = Minup_obs.Clock

(* A cooperative cancellation budget, shared by every [Make] application
   (it involves no lattice types).  [steps] counts scheduling iterations —
   one per Bigloop attribute visit, one per Try worklist pop — the units of
   progress the algorithm is guaranteed to make; [charge] lets
   fault-injection hooks burn budget without doing work.  [next_check] is
   the step at which the solver next leaves its hot loop to look at the
   budget: the next multiple of 64 (a clock poll), or [max_steps + 1] if
   that comes first.  The wall clock is an injectable [now] so tests (and
   the fault simulator) can warp time deterministically instead of
   sleeping. *)
type budget = {
  deadline_ms : int option;
  max_steps : int option;
  now : unit -> int64;
  mutable steps : int;
  mutable next_check : int;
}

let budget ?deadline_ms ?max_steps ?(now = Clock.now_ns) () =
  (match deadline_ms with
  | Some ms when ms < 0 -> invalid_arg "Solver.budget: deadline_ms < 0"
  | _ -> ());
  (match max_steps with
  | Some s when s < 0 -> invalid_arg "Solver.budget: max_steps < 0"
  | _ -> ());
  { deadline_ms; max_steps; now; steps = 0; next_check = 0 }

(* A charge that jumps [steps] past [next_check] trips at the next step. *)
let charge b k = if k > 0 then b.steps <- b.steps + min k (max_int - b.steps)

let reschedule b =
  let poll = (b.steps lor 63) + 1 in
  b.next_check <-
    (match b.max_steps with Some m when m < poll -> m + 1 | _ -> poll)

(* The budget a solve without one counts its steps in: it never fires. *)
let unbounded () = { (budget ()) with next_check = max_int }

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  type problem = {
    lat : L.t;
    prob : L.level Problem.t;
    prio : Priorities.t;
    simple_only : bool array;
  }

  (* [simple_only.(p - 1)]: priority set [p] has two or more members and
     none of them is in the lhs of a complex constraint, so the Bigloop
     solves it with one lub instead of [Try].  The array exists only if
     one set qualifies: it is empty otherwise. *)
  let simple_only_sets prob (prio : Priorities.t) =
    let off = prob.Problem.complex_constr_of.Problem.off in
    let { Priorities.members; starts; max_priority = np; _ } = prio in
    let rec simple j e =
      j = e || (let a = members.(j) in off.(a) = off.(a + 1) && simple (j + 1) e)
    in
    let simple_only p = Priorities.size prio p > 1 && simple starts.(p - 1) starts.(p) in
    let rec exists p = p <= np && (simple_only p || exists (p + 1)) in
    if exists 1 then Array.init np (fun k -> simple_only (k + 1)) else [||]

  let prepare ~lattice prob =
    let prio = Priorities.compute prob in
    { lat = lattice; prob; prio; simple_only = simple_only_sets prob prio }

  let compile ~lattice ?attrs csts =
    Trace.with_span ~cat:"solver" "compile" @@ fun () ->
    Result.map (prepare ~lattice) (Problem.compile ?attrs csts)

  let compile_exn ~lattice ?attrs csts =
    match compile ~lattice ?attrs csts with
    | Ok p -> p
    | Error _ -> .

  type event =
    | Consider of { attr : string; priority : int }
    | Back_assigned of { attr : string; level : L.level }
    | Try_lower of {
        attr : string;
        target : L.level;
        lowered : (string * L.level) list option;
      }
    | Finalized of { attr : string; level : L.level }

  type solution = {
    levels : L.level array;
    assignment : (string * L.level) list;
    stats : Instr.t;
    reused : int;
  }

  type cancel_reason =
    | Deadline of { deadline_ms : int; elapsed_ms : float }
    | Steps of { max_steps : int }

  type progress = {
    partial : (string * L.level) list;
    n_finalized : int;
    n_attrs : int;
    steps : int;
  }

  exception Cancelled of { reason : cancel_reason; progress : progress }

  let () =
    Printexc.register_printer (function
      | Cancelled { reason; progress } ->
          let what =
            match reason with
            | Deadline { deadline_ms; elapsed_ms } ->
                Printf.sprintf "deadline %dms exceeded (%.1fms elapsed)"
                  deadline_ms elapsed_ms
            | Steps { max_steps } ->
                Printf.sprintf "step budget %d exhausted" max_steps
          in
          Some
            (Printf.sprintf "Solver.Cancelled(%s; %d/%d attrs finalized, %d steps)"
               what progress.n_finalized progress.n_attrs progress.steps)
      | _ -> None)

  let fault_of_cancelled reason progress =
    match reason with
    | Deadline { deadline_ms; elapsed_ms } ->
        Fault.Deadline_exceeded { deadline_ms; elapsed_ms }
    | Steps { max_steps } ->
        Fault.Budget_exhausted { max_steps; steps = progress.steps }

  exception Try_failed

  (* Where an attribute stands in the current [Try] call: in neither of
     the paper's maps, in Tocheck, or in Tolower (never in both). *)
  type pending = Idle | To_check | To_lower

  module Config = struct
    type t = {
      on_event : (event -> unit) option;
      residual : (L.t -> target:L.level -> others:L.level -> L.level) option;
      upgrade_preference : (string -> int) option;
      check_aggregate : bool;
      budget : budget option;
    }

    let default =
      {
        on_event = None;
        residual = None;
        upgrade_preference = None;
        check_aggregate = false;
        budget = None;
      }

    let make ?on_event ?residual ?upgrade_preference ?(check_aggregate = false)
        ?budget () =
      { on_event; residual; upgrade_preference; check_aggregate; budget }
  end

  (* One solve's state in every mode: plain (§§3–5), upper-bound (§6) and
     incremental.  Allocated once per solve, never stored in the shared
     [problem], except that an incremental solve takes its arrays from the
     previous one's through its workspace (see [start]).  The functions below
     are the paper's steps over it; the hot ones read the arrays they walk
     into locals first. *)
  type state = {
    lat : L.t;
    prob : L.level Problem.t;
    prio : Priorities.t;
    simple_only : bool array;
    config : Config.t;
    bottom : L.level;
    top : L.level;
    bounds_mode : bool;  (* Minlevel runs before a lhs is all labeled *)
    stats : Instr.t;
    lam : L.level array;  (* λ *)
    done_ : bool array;  (* λ(A) final *)
    unlabeled : int array;  (* per complex constraint: lhs members unvisited *)
    agg : L.level array;  (* per complex constraint: see [finalize] *)
    pref : int array option;  (* upgrade preference per attribute *)
    prev : L.level array option;  (* incremental mode: the earlier levels *)
    stale : bool array;  (* incremental mode: the set must be labeled again *)
    stamp : int array;  (* incremental mode: per complex constraint, see [rebuild] *)
    mutable epoch : int;  (* incremental mode: opened by each reused set *)
    mutable reused : int;  (* attributes that took [prev]'s level *)
    mutable relabeled : int;  (* incremental mode: sets labeled again *)
    (* [try_lower]'s and [dset]'s scratch; the three per-attribute arrays
       are allocated at the first [Try], which an acyclic solve never
       calls *)
    mutable pend : pending array;
    mutable pend_lvl : L.level array;
    mutable fifo : int array;
    mutable fifo_len : int;
    mutable touched : int array;
    mutable n_touched : int;
    mutable dset : L.level array;
    mutable dset_len : int;
    budget : budget;
    t0 : int64;  (* the budget's clock at the start *)
    tracing : bool;  (* see [start] *)
    metering : bool;
    t_solve0 : int64;
    mutable back_assigned : int;
    mutable forward_lowered : int;
    mutable set_iters : int list;  (* Try iterations per set ([metering]) *)
    mutable collapsed : int;  (* sets solved by [collapse] *)
  }

  (* The state of the last incremental solve that completed with this
     workspace, whose arrays the next one takes; [None] while a solve
     holds them, and after one raised. *)
  type workspace = { mutable last : state option }

  let workspace () = { last = None }

  let attr_name st a = Problem.attr_name st.prob a

  (* Instrumented lattice operations.  ⊥ is the identity of lub and ⊤ the
     identity of glb, so those cases skip the lattice operation (and the
     counter) entirely — folds that start from ⊥, and glbs against
     still-at-⊤ attributes, are frequent enough in the algorithm that this
     shortcut alone removes a sizable slice of the lattice-op bill.  The
     test is *physical* equality: one compare instruction, exact for
     immediate level representations (every int-backed lattice), and for
     boxed levels merely a missed shortcut — [L.lub]/[L.glb] then handle
     the identity case themselves, so results are unchanged. *)
  let lub st a b =
    if a == st.bottom then b
    else if b == st.bottom then a
    else begin
      st.stats.Instr.lub <- st.stats.Instr.lub + 1;
      L.lub st.lat a b
    end

  let glb st a b =
    if a == st.top then b
    else if b == st.top then a
    else begin
      st.stats.Instr.glb <- st.stats.Instr.glb + 1;
      L.glb st.lat a b
    end

  let leq st a b =
    st.stats.Instr.leq <- st.stats.Instr.leq + 1;
    L.leq st.lat a b

  (* Cooperative cancellation, one path for every solve.  Each scheduling
     event — each Try worklist pop and each Bigloop attribute — is one
     [step]; it compares the budget's step count with [next_check], and
     only when the step reaches it does it [check]: trip on the step
     budget, poll the wall clock when the step is a multiple of 64 (a
     clock read per attribute costs >10% on back-propagation-heavy
     workloads), and schedule the next check.  One last check after the
     Bigloop always polls the clock, so a deadline — or a hook's clock
     warp landing after the last amortized poll — is noticed even on
     instances too small to ever reach 64 steps.  A solve without a budget
     counts its steps in an [unbounded] one: no clock reads, and no effect
     on the [Instr] counters ([steps] lives in the budget, not in
     [stats]). *)
  let cancel st reason =
    let partial = ref [] in
    for a = Array.length st.lam - 1 downto 0 do
      if st.done_.(a) then partial := (attr_name st a, st.lam.(a)) :: !partial
    done;
    raise
      (Cancelled
         {
           reason;
           progress =
             {
               partial = !partial;
               n_finalized = List.length !partial;
               n_attrs = Array.length st.lam;
               steps = st.budget.steps;
             };
         })

  let check st ~poll =
    let b = st.budget in
    (match b.max_steps with
    | Some m when b.steps > m -> cancel st (Steps { max_steps = m })
    | _ -> ());
    match b.deadline_ms with
    | Some ms when poll ->
        let elapsed = Int64.sub (b.now ()) st.t0 in
        if Int64.compare elapsed (Int64.mul (Int64.of_int ms) 1_000_000L) > 0 then
          cancel st
            (Deadline { deadline_ms = ms; elapsed_ms = Int64.to_float elapsed /. 1e6 })
    | _ -> ()

  let step st =
    let b = st.budget in
    b.steps <- b.steps + 1;
    if b.steps >= b.next_check then begin
      check st ~poll:(b.steps land 63 = 0);
      reschedule b
    end

  (* [a]'s level is final: fold it into the lhs-lub aggregate of every
     complex constraint it is in.  An attribute's level never changes once
     finalized (back-assigned attributes are final immediately; forward
     lowering only ever touches not-yet-done attributes), so each member
     enters an aggregate exactly once and [minlevel] never refolds the
     whole lhs.  Reached exactly once per attribute the Bigloop labels; ⊥
     is skipped, as the lub identity.  A member [reuse] takes [prev]'s
     level for is never folded here: [rebuild] folds it, if a later set
     reads the aggregate. *)
  let finalize st a =
    let la = st.lam.(a) in
    if la != st.bottom then begin
      let { Problem.off; tgt } = st.prob.Problem.complex_constr_of in
      for i = off.(a) to off.(a + 1) - 1 do
        let k = tgt.(i) in
        st.agg.(k) <- lub st st.agg.(k) la
      done
    end

  (* [Problem]'s right-hand side code, decoded here because these run at
     every constraint visit: the default build compiles each module
     [-opaque], so a call to [Problem.rhs_is_attr] is never inlined, and
     such calls made the acyclic solve about a third slower. *)
  let is_attr r = r >= 0
  let level_index r = -1 - r

  (* A right-hand side [r] of the store: its current level, and whether
     that level is final. *)
  let rhs_level st r =
    if is_attr r then st.lam.(r) else st.prob.Problem.store.Problem.levels.(level_index r)

  let rhs_done st r = (not (is_attr r)) || st.done_.(r)

  (* The Bigloop turns to [a] (one scheduling step, [Consider]) ... *)
  let visit st p a =
    step st;
    match st.config.Config.on_event with
    | Some f -> f (Consider { attr = attr_name st a; priority = p })
    | None -> ()

  (* ... and finalizes it once its level is settled: by back-propagation
     ([back], [Back_assigned]), or by forward lowering or a collapse
     ([Finalized]). *)
  let finish st a ~back =
    st.done_.(a) <- true;
    finalize st a;
    if back then st.back_assigned <- st.back_assigned + 1
    else st.forward_lowered <- st.forward_lowered + 1;
    match st.config.Config.on_event with
    | Some f ->
        let attr = attr_name st a and level = st.lam.(a) in
        f (if back then Back_assigned { attr; level } else Finalized { attr; level })
    | None -> ()

  (* MINLEVEL(A, lhs, rhs): a minimal level [a] can assume without
     violating the complex constraint [ci] (dense id [k]), given the
     current levels of the other lhs members. *)
  let minlevel st a k ci =
    st.stats.Instr.minlevel_calls <- st.stats.Instr.minlevel_calls + 1;
    let { Problem.off; tgt } = st.prob.Problem.store.Problem.lhs in
    let lubothers =
      if st.unlabeled.(k) = 0 then
        (* Every lhs member has been considered, and an attribute's
           Consider iteration runs to completion before the next begins,
           so all members other than [a] are finalized — the aggregate
           already covers everyone else: O(1) instead of O(|lhs|) lubs. *)
        st.agg.(k)
      else
        (* Some lhs members are still provisional (bounds mode evaluates
           complex constraints before all members are labeled): fold just
           those on top of the aggregate.  [done_] coincides with
           "finalized" for every attribute except [a] itself, which the
           fold skips explicitly. *)
        let acc = ref st.agg.(k) in
        for i = off.(ci) to off.(ci + 1) - 1 do
          let a' = tgt.(i) in
          if not (a' = a || st.done_.(a')) then acc := lub st !acc st.lam.(a')
        done;
        !acc
    in
    if st.config.Config.check_aggregate then begin
      (* The reference: a full refold of the others, uninstrumented so
         self-checking does not distort the counters. *)
      let reference =
        Problem.fold_lhs st.prob ci
          (fun acc a' -> if a' = a then acc else L.lub st.lat acc st.lam.(a'))
          st.bottom
      in
      if not (L.equal st.lat reference lubothers) then
        invalid_arg
          (Printf.sprintf
             "Solver: incremental lhs-lub aggregate diverged from the \
              reference fold at attribute %s"
             (attr_name st a))
    end;
    let target = rhs_level st st.prob.Problem.store.Problem.rhs.(ci) in
    match st.config.Config.residual with
    | Some r -> r st.lat ~target ~others:lubothers
    | None ->
        if leq st target lubothers then st.bottom
        else begin
          (* Descend one cover at a time; stop when no direct descendant
             of [last] keeps the constraint satisfiable. *)
          let last = ref st.lam.(a) in
          let continue = ref true in
          while !continue do
            match
              List.find_opt
                (fun l' -> leq st target (lub st l' lubothers))
                (L.covers_below st.lat !last)
            with
            | Some l' -> last := l'
            | None -> continue := false
          done;
          !last
        end

  (* Bigloop's back-propagation over Constr[A]: the lub of what each
     constraint with a final rhs asks of [a] — the rhs, or [minlevel] once
     a complex lhs is all visited (in bounds mode, always).  [a] is left
     done iff every rhs was final; if not, forward lowering starts above
     the result. *)
  let back_propagate st a =
    let { Problem.off; tgt } = st.prob.Problem.constr_of in
    let rhs = st.prob.Problem.store.Problem.rhs and complex_idx = st.prob.Problem.complex_idx in
    let unlabeled = st.unlabeled and done_ = st.done_ in
    done_.(a) <- true;
    let l = ref st.bottom in
    for i = off.(a) to off.(a + 1) - 1 do
      let ci = tgt.(i) in
      let r = rhs.(ci) in
      let k = complex_idx.(ci) in
      if k >= 0 then unlabeled.(k) <- unlabeled.(k) - 1;
      if rhs_done st r then begin
        if k < 0 then l := lub st !l (rhs_level st r)
        else if unlabeled.(k) = 0 || st.bounds_mode then
          l := lub st !l (minlevel st a k ci)
      end
      else done_.(a) <- false
    done;
    !l

  (* [a], full at [len] entries, doubled. *)
  let grow a len fill =
    let grown = Array.make (2 * len) fill in
    Array.blit a 0 grown 0 len;
    grown

  (* Record the pending lowering [x := lvl] in Tocheck. *)
  let to_check st x lvl =
    if st.pend.(x) = Idle then begin
      st.touched.(st.n_touched) <- x;
      st.n_touched <- st.n_touched + 1
    end;
    st.pend.(x) <- To_check;
    st.pend_lvl.(x) <- lvl;
    if st.fifo_len = Array.length st.fifo then
      st.fifo <- grow st.fifo st.fifo_len 0;
    st.fifo.(st.fifo_len) <- x;
    st.fifo_len <- st.fifo_len + 1

  (* TRY(A, l): propagate the candidate lowering λ(A) := l forward through
     the not-yet-done part of the constraint graph.  Returns whether some
     set of simultaneous lowerings keeps every constraint satisfied; if so
     it has already written them into [lam], and they are the attributes
     [touched.(0 .. n_touched - 1)] of the call.  A constraint whose
     finalized right-hand side breaks fails the call.

     All bookkeeping lives in flat scratch allocated once per solve, so a
     worklist iteration allocates nothing:
     - the paper's Tocheck and Tolower maps share [pend] (which map holds
       [x]) and [pend_lvl] (the level recorded there);
     - the Tocheck worklist is the int FIFO [fifo.(head .. fifo_len - 1)],
       emptied by every call; it starts small and doubles, since a
       re-entry pushes an attribute a second time;
     - [touched] is a stack holding each attribute the call writes once,
       so the reset on the way out — success or [Try_failed] — costs the
       call's own work, not O(n).
     When a call succeeds every touched attribute is in Tolower: each move
     into Tocheck pushes a worklist entry, whose pop moves it on. *)
  let try_lower st a0 l0 =
    if Array.length st.pend = 0 then begin
      let n = Array.length st.lam in
      st.pend <- Array.make n Idle;
      st.pend_lvl <- Array.make n st.bottom;
      st.touched <- Array.make n 0
    end;
    let { Problem.off; tgt } = st.prob.Problem.constr_of in
    let { Problem.lhs = { Problem.off = loff; tgt = ltgt }; rhs; levels; _ } =
      st.prob.Problem.store
    in
    let stats = st.stats and lam = st.lam and done_ = st.done_ in
    let pend = st.pend and pend_lvl = st.pend_lvl in
    stats.Instr.try_calls <- stats.Instr.try_calls + 1;
    st.n_touched <- 0;
    st.fifo_len <- 0;
    to_check st a0 l0;
    let head = ref 0 in
    let ok =
      try
        while !head < st.fifo_len do
          step st;
          let x = st.fifo.(!head) in
          incr head;
          (* A popped attribute no longer in Tocheck is a stale entry: the
             pair was moved or replaced. *)
          if pend.(x) = To_check then begin
            pend.(x) <- To_lower;
            stats.Instr.try_iterations <- stats.Instr.try_iterations + 1;
            for i = off.(x) to off.(x + 1) - 1 do
              stats.Instr.constraint_checks <- stats.Instr.constraint_checks + 1;
              let ci = tgt.(i) in
              let level = ref st.bottom in
              for j = loff.(ci) to loff.(ci + 1) - 1 do
                let a'' = ltgt.(j) in
                level :=
                  lub st !level
                    (if pend.(a'') = To_lower then pend_lvl.(a'') else lam.(a''))
              done;
              let level = !level and b = rhs.(ci) in
              if not (is_attr b) then begin
                if not (leq st levels.(level_index b) level) then raise Try_failed
              end
              else if not (leq st lam.(b) level) then begin
                if done_.(b) then raise Try_failed;
                let newlevel = glb st lam.(b) level in
                if pend.(b) = Idle then to_check st b newlevel
                else begin
                  let l'' = pend_lvl.(b) in
                  if not (leq st l'' newlevel) then
                    (* The recorded lowering and the one now required
                       are incomparable (or ours is lower): the
                       attribute must end below both, i.e. at their
                       glb, and is checked again. *)
                    to_check st b (glb st l'' newlevel)
                  (* Otherwise the pending lowering already implies
                     satisfaction; leave it alone. *)
                end
              end
            done
          end
        done;
        true
      with Try_failed -> false
    in
    for i = 0 to st.n_touched - 1 do
      let x = st.touched.(i) in
      if ok then lam.(x) <- pend_lvl.(x);
      pend.(x) <- Idle
    done;
    ok

  (* DSet(A, l): the covers of λ(A) that dominate [l] — exactly the
     maximal levels strictly below λ(A) that still dominate it — in cover
     order, into [dset.(0 .. dset_len - 1)]. *)
  let dset st a l =
    st.dset_len <- 0;
    List.iter
      (fun l' ->
        if leq st l l' then begin
          if st.dset_len = Array.length st.dset then
            st.dset <- grow st.dset st.dset_len st.bottom;
          st.dset.(st.dset_len) <- l';
          st.dset_len <- st.dset_len + 1
        end)
      (L.covers_below st.lat st.lam.(a))

  (* Bigloop's forward lowering of [a] through its cycle, above the floor
     [l] back-propagation found: [try_lower] each DSet candidate in turn,
     and start over from the new λ(A)'s DSet after every success. *)
  let forward_lower st a l =
    dset st a l;
    let next = ref 0 in
    while !next < st.dset_len do
      let target = st.dset.(!next) in
      incr next;
      let ok = try_lower st a target in
      (match st.config.Config.on_event with
      | Some f ->
          (* A success's lowerings are its touched attributes, newest
             first. *)
          let n = st.n_touched in
          let lowered i =
            let x = st.touched.(n - 1 - i) in
            (attr_name st x, st.lam.(x))
          in
          let lowered = if ok then Some (List.init n lowered) else None in
          f (Try_lower { attr = attr_name st a; target; lowered })
      | None -> ());
      if ok then begin
        dset st a l;
        next := 0
      end
    done

  let begin_set_span name p size =
    Trace.begin_span ~cat:"solver"
      ~args:[ ("priority", Trace.Int p); ("size", Trace.Int size) ]
      name

  (* A simple-only set has a unique least solution: its internal edges are
     all simple, so strong connectivity forces every member to one level
     [v], and every constraint on a member reads [v ⊒ x] with [x] a level,
     a member, or an attribute already final.  [v] is the lub of those
     final [x] — exactly the level [Try] would reach, one cover at a time.
     Each member is then visited (one step, [Consider]) and finished at
     [v] ([Finalized]). *)
  let collapse st p members =
    if st.tracing then begin_set_span "collapse" p (Array.length members);
    let { Problem.off; tgt } = st.prob.Problem.constr_of in
    let rhs = st.prob.Problem.store.Problem.rhs in
    let v = ref st.bottom in
    for j = 0 to Array.length members - 1 do
      let a = members.(j) in
      for i = off.(a) to off.(a + 1) - 1 do
        let r = rhs.(tgt.(i)) in
        if rhs_done st r then v := lub st !v (rhs_level st r)
      done
    done;
    for j = 0 to Array.length members - 1 do
      let a = members.(j) in
      visit st p a;
      st.lam.(a) <- !v;
      finish st a ~back:false
    done;
    st.collapsed <- st.collapsed + 1;
    if st.tracing then Trace.end_span ~cat:"solver" "collapse"

  (* [a] is in a complex row with a member still unlabeled.  In a cyclic
     set that member may already sit below what the row needs: a [Try]
     of the set can have lowered it, and a final rhs can cap it there
     (DESIGN.md §9). *)
  let open_row st a =
    let { Problem.off; tgt } = st.prob.Problem.complex_constr_of in
    let rec from i = i < off.(a + 1) && (st.unlabeled.(tgt.(i)) > 0 || from (i + 1)) in
    from off.(a)

  (* The Bigloop body for any other set: back-propagation for a member
     whose right-hand sides are all final and whose complex rows are all
     labeled (in a cyclic set), forward lowering if not.  Only
     a cyclic set can lower forward — a singleton's right-hand sides are
     all labeled before its turn — and gets a "try_lower" span.  The set
     is [members.(lo .. hi - 1)], in labeling order. *)
  let label_set st p members lo hi =
    let cyclic = hi - lo > 1 in
    let tries0 = st.stats.Instr.try_calls
    and iters0 = st.stats.Instr.try_iterations in
    if st.tracing && cyclic then begin_set_span "try_lower" p (hi - lo);
    for j = lo to hi - 1 do
      let a = members.(j) in
      visit st p a;
      let l = back_propagate st a in
      if cyclic && st.done_.(a) && (not st.bounds_mode) && open_row st a then st.done_.(a) <- false;
      let back = st.done_.(a) in
      if back then st.lam.(a) <- l else forward_lower st a l;
      finish st a ~back
    done;
    if cyclic then begin
      let iters = st.stats.Instr.try_iterations - iters0 in
      if st.tracing then
        Trace.end_span ~cat:"solver"
          ~args:
            [
              ("tries", Trace.Int (st.stats.Instr.try_calls - tries0));
              ("iterations", Trace.Int iters);
            ]
          "try_lower";
      if st.metering then st.set_iters <- iters :: st.set_iters
    end

  (* Attributes ordered by (preference, id). *)
  let by_pref st a b =
    match st.pref with
    | None -> Int.compare a b
    | Some pref -> (
        match Int.compare pref.(a) pref.(b) with 0 -> Int.compare a b | c -> c)

  (* Incremental mode, a set with no stale member: its inputs — the
     levels of the sets labeled before it and its own constraints — are
     those of [prev]'s solve, so it takes [prev]'s levels, with no step,
     span or event.  Two writes per member: the complex rows it is in
     are left as they were, neither counted down in [unlabeled] nor
     folded into [agg], and the set opens a new epoch, so that [rebuild]
     brings a row up to date before a set labeled later reads it. *)
  let reuse st prev members lo hi =
    for j = lo to hi - 1 do
      let a = members.(j) in
      st.lam.(a) <- prev.(a);
      st.done_.(a) <- true
    done;
    st.epoch <- st.epoch + 1;
    st.reused <- st.reused + (hi - lo)

  (* Incremental mode, before a set [members.(lo .. hi - 1)] is labeled:
     each complex row of a member that has not been rebuilt in this
     epoch gets [unlabeled] and [agg] from its lhs members done now — the
     state a solve that reused nothing has at this turn, since there
     every member labeled so far was counted down at its visit and folded
     in at its finish, and none of this set's members is done yet.
     Within an epoch no set is reused, so a rebuilt row is kept up to
     date by the labeled sets' own visits and finishes; a row is rebuilt
     at most once per epoch (once per run of reused sets that precedes a
     labeled set reading it), and before any of its members finishes in
     it.  The first epoch, before any reuse, starts every row from its
     empty state this way. *)
  let rebuild st members lo hi =
    let { Problem.off; tgt } = st.prob.Problem.constr_of in
    let { Problem.off = loff; tgt = ltgt } = st.prob.Problem.store.Problem.lhs in
    let complex_idx = st.prob.Problem.complex_idx and stamp = st.stamp in
    let lam = st.lam and done_ = st.done_ and epoch = st.epoch in
    for j = lo to hi - 1 do
      let a = members.(j) in
      for i = off.(a) to off.(a + 1) - 1 do
        let ci = tgt.(i) in
        let k = complex_idx.(ci) in
        if k >= 0 && stamp.(k) <> epoch then begin
          stamp.(k) <- epoch;
          let unlabeled = ref 0 and agg = ref st.bottom in
          for i' = loff.(ci) to loff.(ci + 1) - 1 do
            let x = ltgt.(i') in
            if done_.(x) then agg := lub st !agg lam.(x) else incr unlabeled
          done;
          st.unlabeled.(k) <- !unlabeled;
          st.agg.(k) <- !agg
        end
      done
    done

  (* Incremental mode, after a set is labeled: a member whose level is not
     [prev]'s — or that [prev] lacks — makes stale every attribute whose
     labeling reads it: the lhs of each constraint it is the rhs of, and
     its peers in each complex lhs.  The comparison is uncounted. *)
  let mark_stale st prev members lo hi =
    let prob = st.prob in
    let mark ci = Problem.iter_lhs prob ci (fun x -> st.stale.(x) <- true) in
    for j = lo to hi - 1 do
      let a = members.(j) in
      if a >= Array.length prev || not (L.equal st.lat st.lam.(a) prev.(a)) then begin
        Problem.iter_incoming prob a mark;
        Problem.iter_constr_of prob a (fun ci ->
            if prob.Problem.complex_idx.(ci) >= 0 then mark ci)
      end
    done

  let rec any_stale stale members j hi =
    j < hi && (stale.(members.(j)) || any_stale stale members (j + 1) hi)

  (* Priority set [p]'s turn, its members in (preference, id) order, or
     [reuse] of [prev]'s levels if nothing it reads has changed.  The set
     is [members.(lo .. hi - 1)] of the priorities' CSR; a cyclic one is
     sorted in a copy. *)
  let bigloop_set st p =
    let { Priorities.members; starts; _ } = st.prio in
    let lo = starts.(p - 1) and hi = starts.(p) in
    match st.prev with
    | Some prev when not (any_stale st.stale members lo hi) -> reuse st prev members lo hi
    | prev -> (
        if Option.is_some prev then begin
          rebuild st members lo hi;
          st.relabeled <- st.relabeled + 1
        end;
        if hi - lo > 1 then begin
          let sorted = Array.sub members lo (hi - lo) in
          Array.sort (by_pref st) sorted;
          if p <= Array.length st.simple_only && st.simple_only.(p - 1) then
            collapse st p sorted
          else label_set st p sorted 0 (hi - lo)
        end
        else label_set st p members lo hi;
        match prev with Some prev -> mark_stale st prev members lo hi | None -> ())

  (* The order Bigloop takes [prio]'s sets of [prob] in: any sink-first
     topological order of the condensation labels every right-hand side
     before its left-hand sides.  [None] is the paper's, decreasing
     priority.  An upgrade preference picks another: the attribute that
     absorbs a complex constraint's upgrade is the last of its lhs to be
     labeled, so Kahn's algorithm takes first the available set holding
     the least-preferred (preference, id) attribute.  [deps.(p)] counts
     set [p]'s cross-set edges into sets not yet labeled, once per
     constraint and lhs member: a set is available once all of them are
     labeled, deduplicated or not. *)
  let schedule st (prob : _ Problem.t) (prio : Priorities.t) =
    match st.pref with
    | None -> None
    | Some _ ->
        let { Priorities.priority; members; starts; max_priority = np } = prio in
        let { Problem.off = loff; tgt = ltgt } = prob.Problem.store.Problem.lhs in
        let { Problem.off; tgt } = prob.Problem.incoming in
        (* [f q] for every cross-set edge into set [p], from set [q]. *)
        let edges_into p f =
          for m = starts.(p - 1) to starts.(p) - 1 do
            let b = members.(m) in
            for j = off.(b) to off.(b + 1) - 1 do
              let ci = tgt.(j) in
              for i = loff.(ci) to loff.(ci + 1) - 1 do
                let a = ltgt.(i) in
                if priority.(a) <> p then f priority.(a)
              done
            done
          done
        in
        let deps = Array.make (np + 1) 0 in
        for p = 1 to np do
          edges_into p (fun q -> deps.(q) <- deps.(q) + 1)
        done;
        (* Set [p]'s key, [key.(p - 1)], is its least-preferred member:
           computed once, and unique, since the sets are disjoint. *)
        let least p =
          let k = ref members.(starts.(p - 1)) in
          for m = starts.(p - 1) + 1 to starts.(p) - 1 do
            if by_pref st members.(m) !k < 0 then k := members.(m)
          done;
          !k
        in
        let key = Array.init np (fun k -> least (k + 1)) in
        (* The available sets, a binary min-heap on their keys in
           [heap.(0 .. !avail - 1)]: each set enters once, when its last
           dependency is labeled, and leaves once, so picking the next
           set allocates nothing. *)
        let heap = Array.make np 0 and avail = ref 0 in
        let less p q = by_pref st key.(p - 1) key.(q - 1) < 0 in
        let add p =
          let i = ref !avail in
          incr avail;
          while !i > 0 && less p heap.((!i - 1) / 2) do
            heap.(!i) <- heap.((!i - 1) / 2);
            i := (!i - 1) / 2
          done;
          heap.(!i) <- p
        in
        let take () =
          let top = heap.(0) in
          decr avail;
          let last = heap.(!avail) and i = ref 0 and sifting = ref true in
          while !sifting do
            let l = (2 * !i) + 1 in
            let c = if l + 1 < !avail && less heap.(l + 1) heap.(l) then l + 1 else l in
            if c < !avail && less heap.(c) last then begin
              heap.(!i) <- heap.(c);
              i := c
            end
            else sifting := false
          done;
          heap.(!i) <- last;
          top
        in
        for p = 1 to np do
          if deps.(p) = 0 then add p
        done;
        let order = Array.make np 0 in
        for i = 0 to np - 1 do
          let p = take () in
          order.(i) <- p;
          (* Labeling [p] discharges every edge into it. *)
          edges_into p (fun q ->
              deps.(q) <- deps.(q) - 1;
              if deps.(q) = 0 then add q)
        done;
        Some order

  (* BIGLOOP: every priority set in [schedule]'s order, then a last look
     at the budget — a clock warp (or hook charge) landing after the last
     amortized poll must still cancel the solve rather than let it return
     a full solution. *)
  let bigloop st order =
    if st.tracing then Trace.begin_span ~cat:"solver" "bigloop";
    (match order with
    | None ->
        for p = st.prio.Priorities.max_priority downto 1 do
          bigloop_set st p
        done
    | Some order -> Array.iter (bigloop_set st) order);
    check st ~poll:true;
    if st.tracing then Trace.end_span ~cat:"solver" "bigloop"

  (* The lhs size of each complex constraint, by dense id. *)
  let lhs_sizes prob =
    let sizes = Array.make prob.Problem.n_complex 0 in
    let off = prob.Problem.store.Problem.lhs.Problem.off in
    let complex_idx = prob.Problem.complex_idx in
    for ci = 0 to Problem.n_csts prob - 1 do
      let k = complex_idx.(ci) in
      if k >= 0 then sizes.(k) <- off.(ci + 1) - off.(ci)
    done;
    sizes

  (* A fresh state, every attribute at [ub] (bounds mode) or ⊤.
     Observability is latched here: spans mark the phases (solve,
     schedule, bigloop) and each cyclic priority set, never a single
     attribute — [on_event] and [stats] already tell that story — and the
     registry is updated once, when the solve ends.  Every site is guarded
     by [tracing] or [metering], so the disabled path costs one branch per
     site: no clock reads, no allocation, and no effect on the [Instr]
     counters.

     An incremental solve takes the arrays of the last one that completed
     with its workspace, if they are long enough, and allocates only λ,
     the levels it returns.  It fills [done_] and [stale] over its
     attributes; [unlabeled] and [agg] need no reset, since its first
     epoch is past every [stamp] the last one wrote, so [rebuild] brings
     each row up to date before it is read; and [Try]'s scratch is all
     [Idle] once a solve completes.  Arrays it must make are of exact
     size. *)
  let start ?prev ?ub ~(config : Config.t) ({ lat; prob; prio; simple_only } : problem) =
    let n = Problem.n_attrs prob and nc = prob.Problem.n_complex in
    let held =
      match prev with
      | None -> None
      | Some ((pp : problem), (sol : solution), _, ws) -> (
          let n0 = Problem.n_attrs pp.prob in
          if Array.length sol.levels <> n0 || n0 > n then
            invalid_arg "Solver.solve_incremental: prev solves another problem";
          let last = ws.last in
          ws.last <- None;
          match last with
          | Some h when Array.length h.done_ >= n && Array.length h.stamp >= nc -> last
          | _ -> None)
    in
    (* [held]'s flags [a], cleared over the attributes, or new ones. *)
    let flags a =
      match held with
      | Some h ->
          let a = a h in
          Array.fill a 0 n false;
          a
      | None -> Array.make n false
    in
    let stale =
      match prev with
      | None -> [||]
      | Some ((pp : problem), _, dirty, _) ->
          (* Rule (a): an attribute [prev] lacks has no level to reuse. *)
          let stale = flags (fun h -> h.stale) in
          let n0 = Problem.n_attrs pp.prob in
          Array.fill stale n0 (n - n0) true;
          List.iter (fun a -> stale.(a) <- true) dirty;
          stale
    in
    let incremental = Option.is_some prev in
    let tracing = Trace.enabled () and metering = Metrics.enabled () in
    let t_solve0 = if tracing || metering then Clock.now_ns () else 0L in
    let bounds_mode = Option.is_some ub in
    if tracing then
      Trace.begin_span ~ts_ns:t_solve0 ~cat:"solver"
        ~args:
          [
            ("attrs", Trace.Int n);
            ("csts", Trace.Int (Problem.n_csts prob));
            ("bounds_mode", Trace.Bool bounds_mode);
          ]
        "solve";
    let bottom = L.bottom lat in
    let budget, t0 =
      match config.Config.budget with
      | None -> (unbounded (), 0L)
      | Some b ->
          reschedule b;
          (b, b.now ())
    in
    let pend, pend_lvl, touched =
      match held with
      | Some h when Array.length h.pend >= n -> (h.pend, h.pend_lvl, h.touched)
      | _ -> ([||], [||], [||])
    in
    {
      lat;
      prob;
      prio;
      simple_only;
      config;
      bottom;
      top = L.top lat;
      bounds_mode;
      stats = Instr.create ();
      lam =
        (* [L.top] again, not [top]: for a boxed lattice, sharing [top]'s
           box would let [glb]'s physical shortcut fire on λ's ⊤ and
           change the counters. *)
        (match ub with Some ub -> ub | None -> Array.make n (L.top lat));
      done_ = flags (fun h -> h.done_);
      (* An incremental solve [rebuild]s each row before it reads it. *)
      unlabeled =
        (match held with
        | Some h -> h.unlabeled
        | None -> if incremental then Array.make nc 0 else lhs_sizes prob);
      agg = (match held with Some h -> h.agg | None -> Array.make nc bottom);
      pref =
        Option.map
          (fun f -> Array.init n (fun a -> f (Problem.attr_name prob a)))
          config.Config.upgrade_preference;
      prev = Option.map (fun (_, sol, _, _) -> sol.levels) prev;
      stale;
      stamp =
        (match held with
        | Some h -> h.stamp
        | None -> if incremental then Array.make nc 0 else [||]);
      epoch = (match held with Some h -> h.epoch + 1 | None -> 1);
      reused = 0;
      relabeled = 0;
      pend;
      pend_lvl;
      fifo = (match held with Some h -> h.fifo | None -> Array.make 16 0);
      fifo_len = 0;
      touched;
      n_touched = 0;
      dset = (match held with Some h -> h.dset | None -> Array.make 4 bottom);
      dset_len = 0;
      budget;
      t0;
      tracing;
      metering;
      t_solve0;
      back_assigned = 0;
      forward_lowered = 0;
      set_iters = [];
      collapsed = 0;
    }

  (* The registry's one update per solve; a cancelled solve records
     nothing. *)
  let publish st =
    Metrics.incr (Metrics.counter "solver/solves");
    Metrics.observe
      (Metrics.histogram "solver/solve_ns")
      (Int64.to_int (Clock.elapsed_ns ~since:st.t_solve0));
    Metrics.add (Metrics.counter "solver/back_assigned") st.back_assigned;
    Metrics.add (Metrics.counter "solver/forward_lowered") st.forward_lowered;
    Metrics.add (Metrics.counter "solver/collapsed_sets") st.collapsed;
    Metrics.add (Metrics.counter "solver/reused_attrs") st.reused;
    let h = Metrics.histogram "solver/try_iters_per_scc" in
    List.iter (Metrics.observe h) st.set_iters;
    Instr.to_metrics st.stats

  (* A raising callback (residual, upgrade preference, on_event handler)
     aborts a solve with its "solve" / "bigloop" / "try_lower" /
     "collapse" spans still open; close them on the way out so an exported
     trace keeps its B/E nesting even when a solve dies. *)
  let with_balanced_spans f =
    let depth = Trace.open_depth () in
    match f () with
    | s -> s
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Trace.unwind_to depth;
        Printexc.raise_with_backtrace e bt

  (* [pos.(p)]: the turn set [p] takes in [schedule]'s [Some] order;
     [None] for the paper's, decreasing priority. *)
  let set_positions (prio : Priorities.t) = function
    | None -> None
    | Some order ->
        let pos = Array.make (prio.Priorities.max_priority + 1) 0 in
        Array.iteri (fun i p -> pos.(p) <- i) order;
        Some pos

  let turn pos priority a =
    match pos with None -> -priority.(a) | Some pos -> pos.(priority.(a))

  (* The last-labeled member of the lhs [ltgt.(lo .. hi - 1)] under
     [priority] and the set turns [pos]: the latest turn, then the last
     in the set's (preference, id) order. *)
  let last_labeled st priority pos ltgt lo hi =
    let last = ref ltgt.(lo) in
    for j = lo + 1 to hi - 1 do
      let a = ltgt.(j) and b = !last in
      let c = Int.compare (turn pos priority a) (turn pos priority b) in
      if c > 0 || (c = 0 && by_pref st a b > 0) then last := a
    done;
    !last

  let mark_all stale a lo hi =
    for j = lo to hi - 1 do
      stale.(a.(j)) <- true
    done

  (* Incremental mode across two problems: [pp], the one [prev] solved,
     has a prefix of [st]'s attributes.  [start] made stale every
     attribute [pp] lacks (rule (a): its set is labeled whole).  This
     adds every member of a set whose attributes [pp] has are not exactly
     one of [pp]'s sets, a merged or split component (rule (b)), and the
     lhs of every complex constraint whose last-labeled member (the one
     that runs [Minlevel]) differs between the two problems' Bigloop
     orders: [order] here, [pp]'s own schedule there (rule (c)).  A
     constraint with a member [pp] lacks has no such member in [pp], so
     its lhs is marked too. *)
  let widen st (pp : problem) order =
    let n0 = Problem.n_attrs pp.prob and stale = st.stale in
    let { Priorities.priority; members; starts; max_priority = np } = st.prio
    and old = pp.prio.Priorities.priority in
    for p = 1 to np do
      let lo = starts.(p - 1) and hi = starts.(p) in
      (* [q]: [pp]'s set of the first member it has, 0 if none yet. *)
      let q = ref 0 and kept = ref 0 and same = ref true in
      for j = lo to hi - 1 do
        let x = members.(j) in
        if x < n0 then begin
          incr kept;
          if !q = 0 then q := old.(x) else if old.(x) <> !q then same := false
        end
      done;
      if !kept > 0 && not (!same && Priorities.size pp.prio !q = !kept) then
        mark_all stale members lo hi
    done;
    let pos = set_positions st.prio order
    and old_pos = set_positions pp.prio (schedule st pp.prob pp.prio) in
    let { Problem.off; tgt } = st.prob.Problem.store.Problem.lhs
    and complex_idx = st.prob.Problem.complex_idx in
    for ci = 0 to Problem.n_csts st.prob - 1 do
      if complex_idx.(ci) >= 0 then begin
        let lo = off.(ci) and hi = off.(ci + 1) in
        let fresh = ref false in
        for j = lo to hi - 1 do
          if tgt.(j) >= n0 then fresh := true
        done;
        if
          !fresh
          || last_labeled st priority pos tgt lo hi
             <> last_labeled st old old_pos tgt lo hi
        then mark_all stale tgt lo hi
      end
    done

  (* An incremental solve's assignment: pairs built up to [last], the
     last attribute whose level is not physically [prev]'s (or that
     [prev] lacks), then [prev]'s own list from [last + 1] on, whose pairs
     hold the same names (the problems share their first ids) and, past
     [last], the same levels. *)
  let assignment st (prev : solution) =
    let lam = st.lam and old = prev.levels in
    let n = Array.length lam in
    let last = ref (n - 1) in
    if Array.length old = n then
      while !last >= 0 && lam.(!last) == old.(!last) do
        decr last
      done;
    let rec drop k l = match l with _ :: rest when k > 0 -> drop (k - 1) rest | l -> l in
    let rec pairs a acc = if a < 0 then acc else pairs (a - 1) ((attr_name st a, lam.(a)) :: acc) in
    pairs !last (if !last < n - 1 then drop (!last + 1) prev.assignment else [])

  (* MAIN after [compile]'s priorities, the one entry path of every mode:
     [prev] is the problem an earlier solution solved, that solution, the
     attributes whose constraints changed since (see {!solve_incremental})
     and the workspace a completed solve leaves its state in for the
     next; [ub] starts every attribute at its upper bound (§6). *)
  let run ?prev ?ub ~config problem =
    with_balanced_spans @@ fun () ->
    let st = start ?prev ?ub ~config problem in
    let order =
      if st.tracing then
        Trace.with_span ~cat:"solver" "schedule" (fun () -> schedule st st.prob st.prio)
      else schedule st st.prob st.prio
    in
    (match prev with
    | Some (pp, _, _, _) when pp != problem -> widen st pp order
    | _ -> ());
    bigloop st order;
    let stats = st.stats in
    if st.tracing then
      Trace.end_span ~cat:"solver"
        ~args:
          ([
             ("lub", Trace.Int stats.Instr.lub);
             ("leq", Trace.Int stats.Instr.leq);
             ("minlevel_calls", Trace.Int stats.Instr.minlevel_calls);
             ("try_calls", Trace.Int stats.Instr.try_calls);
           ]
          @
          match prev with
          | None -> []
          | Some _ ->
              [ ("reused", Trace.Int st.reused); ("relabeled_sets", Trace.Int st.relabeled) ])
        "solve";
    if st.metering then publish st;
    let lam = st.lam in
    {
      levels = lam;
      assignment =
        (match prev with
        | Some (_, sol, _, ws) ->
            ws.last <- Some st;
            assignment st sol
        | None -> List.init (Array.length lam) (fun a -> (attr_name st a, lam.(a))));
      stats;
      reused = st.reused;
    }

  let solve ?(config = Config.default) problem = run ~config problem

  let solve_incremental ?(config = Config.default) ~workspace ~prev:(pp, prev) ~dirty problem =
    run ~config ~prev:(pp, prev, dirty, workspace) problem

  let find (problem : problem) solution attr =
    match Problem.attr_id problem.prob attr with
    | Some a -> Some solution.levels.(a)
    | None -> None

  let satisfies ({ lat; prob; _ } : problem) levels =
    Problem.satisfies ~leq:(L.leq lat) ~lub:(L.lub lat) ~bottom:(L.bottom lat)
      prob
      (fun a -> levels.(a))

  type inconsistency =
    | Unknown_attr of string
    | Unsatisfiable of { cst : L.level Cst.t; bound : L.level }

  let pp_inconsistency lat ppf = function
    | Unknown_attr a ->
        Format.fprintf ppf "upper bound on unknown attribute %S" a
    | Unsatisfiable { cst; bound } ->
        Format.fprintf ppf
          "constraint %a cannot be satisfied: the left-hand side is capped at %a"
          (Cst.pp (L.pp_level lat))
          cst (L.pp_level lat) bound

  exception Inconsistent of inconsistency

  let derive_upper_bounds ({ lat; prob; _ } : problem) bounds =
    let { Problem.rhs; levels; _ } = prob.Problem.store in
    let ub = Array.make (Problem.n_attrs prob) (L.top lat) in
    (* The highest level the lhs of [ci] can reach: its members' bounds. *)
    let lhs_bound ci = Problem.fold_lhs prob ci (fun acc a -> L.lub lat acc ub.(a)) (L.bottom lat) in
    try
      List.iter
        (fun (name, l) ->
          match Problem.attr_id prob name with
          | Some a -> ub.(a) <- L.glb lat ub.(a) l
          | None -> raise (Inconsistent (Unknown_attr name)))
        bounds;
      (* Push bounds through the graph to the greatest fixpoint: across a
         constraint, the rhs can be no higher than the lub of the lhs
         bounds.  Only a constraint with an attribute rhs can lower a
         bound, so only those are queued. *)
      let queue = Queue.create () in
      let enqueue ci = if Problem.rhs_is_attr rhs.(ci) then Queue.push ci queue in
      for ci = 0 to Problem.n_csts prob - 1 do
        enqueue ci
      done;
      while not (Queue.is_empty queue) do
        let ci = Queue.pop queue in
        let b = rhs.(ci) in
        let nb = L.glb lat ub.(b) (lhs_bound ci) in
        if not (L.equal lat nb ub.(b)) then begin
          ub.(b) <- nb;
          Problem.iter_constr_of prob b enqueue
        end
      done;
      (* Inconsistencies surface at security-level nodes: a level-rhs
         constraint whose lhs, even at its bounds, cannot reach the
         target. *)
      for ci = 0 to Problem.n_csts prob - 1 do
        let r = rhs.(ci) in
        if not (Problem.rhs_is_attr r) then begin
          let bound = lhs_bound ci in
          if not (L.leq lat levels.(Problem.rhs_level_index r) bound) then
            raise
              (Inconsistent
                 (Unsatisfiable { cst = Problem.cst_to_source prob ci; bound }))
        end
      done;
      Ok ub
    with Inconsistent i -> Error i

  let solve_with_bounds ?(config = Config.default) problem bounds =
    Result.map (fun ub -> run ~config ~ub problem) (derive_upper_bounds problem bounds)
end
