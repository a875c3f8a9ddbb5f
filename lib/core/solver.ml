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
  }

  let prepare ?priorities ~lattice prob =
    let prio = match priorities with Some prio -> prio | None -> Priorities.compute prob in
    { lat = lattice; prob; prio }

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
    config : Config.t;
    bottom : L.level;
    top : L.level;
    lam_top : L.level;  (* the ⊤ an unlabeled attribute's λ holds, see [start] *)
    n : int;  (* attributes; an incremental solve's arrays may be longer *)
    bounds_mode : bool;  (* Minlevel runs before a lhs is all labeled *)
    stats : Instr.t;
    lam : L.level array;  (* λ *)
    done_ : bool array;  (* λ(A) final; in incremental mode, read through [final] *)
    unlabeled : int array;  (* per complex constraint: lhs members unvisited *)
    agg : L.level array;  (* per complex constraint: see [finalize] *)
    pref : int array option;  (* upgrade preference per attribute *)
    (* Incremental mode ([prev] is [Some]): the turn walk of [bigloop] *)
    prev : L.level array option;  (* the earlier levels *)
    serial : int;  (* this solve's number in its workspace *)
    queued : int array;  (* per set: the [serial] of the last solve that pushed it *)
    heap : int array;  (* the turns of the sets pushed and not visited yet *)
    mutable heap_len : int;
    mutable order : int array option;  (* [schedule]'s order: the set at each turn *)
    mutable pos : int array option;  (* per set: its turn in [order] *)
    mutable cur : int;  (* the set being labeled *)
    mutable cur_turn : int;  (* its turn *)
    stamp : int array;  (* per complex constraint, see [rebuild] *)
    mutable epoch : int;  (* opened by each gap in the visited turns *)
    mutable relabeled : int;  (* sets labeled again *)
    mutable visited : int;  (* their members *)
    mutable last_changed : int;  (* the last id whose level is not [prev]'s, or -1 *)
    mutable synced : L.level array;  (* the levels λ holds once the solve completes *)
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

  (* Incremental mode walks the sets in the same order as a scratch solve
     but visits only those it pushes ([bigloop]): a set it skips keeps
     [prev]'s levels, which λ already holds, with no write at all.  So
     [done_] is kept for the set being labeled only, and an attribute of
     any other set is final iff its set's turn — its place in the order,
     decreasing priority or [schedule]'s — comes before the current one.
     A scratch solve keeps [done_] for every attribute and reads it. *)
  let turn_in pos p = match pos with None -> -p | Some pos -> pos.(p)
  let turn st p = turn_in st.pos p
  let set_at st t = match st.order with None -> -t | Some order -> order.(t)

  let final st x =
    match st.prev with
    | None -> st.done_.(x)
    | Some _ ->
        let q = st.prio.Priorities.priority.(x) in
        if q = st.cur then st.done_.(x) else turn st q < st.cur_turn

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
    for a = st.n - 1 downto 0 do
      if final st a then partial := (attr_name st a, st.lam.(a)) :: !partial
    done;
    raise
      (Cancelled
         {
           reason;
           progress =
             {
               partial = !partial;
               n_finalized = List.length !partial;
               n_attrs = st.n;
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
      let { Problem.off; tgt } = st.prob.Problem.constr_of in
      let complex_idx = st.prob.Problem.complex_idx and agg = st.agg in
      for i = off.(a) to off.(a + 1) - 1 do
        let k = complex_idx.(tgt.(i)) in
        if k >= 0 then agg.(k) <- lub st agg.(k) la
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

  let rhs_done st r = (not (is_attr r)) || final st r

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
    let stats = st.stats and lam = st.lam and priority = st.prio.Priorities.priority in
    let pend = st.pend and pend_lvl = st.pend_lvl in
    (* An attribute of a later set is at ⊤ in a scratch solve's λ; an
       incremental one's λ holds [prev]'s level there, so the fold reads
       ⊤ for it. *)
    let incremental = Option.is_some st.prev in
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
                    (if pend.(a'') = To_lower then pend_lvl.(a'')
                     else if incremental && turn st priority.(a'') > st.cur_turn then st.lam_top
                     else lam.(a''))
              done;
              let level = !level and b = rhs.(ci) in
              if not (is_attr b) then begin
                if not (leq st levels.(level_index b) level) then raise Try_failed
              end
              else if not (leq st lam.(b) level) then begin
                if final st b then raise Try_failed;
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
    let { Problem.off; tgt } = st.prob.Problem.constr_of in
    let complex_idx = st.prob.Problem.complex_idx and unlabeled = st.unlabeled in
    let rec from i =
      i < off.(a + 1)
      && ((let k = complex_idx.(tgt.(i)) in
           k >= 0 && unlabeled.(k) > 0)
         || from (i + 1))
    in
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

  (* Incremental mode, before a set [members.(lo .. hi - 1)] is labeled:
     each complex row of a member that has not been rebuilt in this
     epoch gets [unlabeled] and [agg] from its lhs members final now —
     the state a scratch solve has at this turn, since there every member
     labeled so far was counted down at its visit and folded in at its
     finish, and none of this set's members is final yet.  A new epoch
     opens at every gap in the visited turns, where a scratch solve would
     have labeled a set this one skips, so within an epoch the visited
     sets' own visits and finishes keep a rebuilt row up to date; a row
     is rebuilt at most once per epoch (once per run of skipped sets that
     precedes a visited set reading it), and before any of its members
     finishes in it.  The first epoch starts every row it reads from its
     empty state this way. *)
  let rebuild st members lo hi =
    let { Problem.off; tgt } = st.prob.Problem.constr_of in
    let { Problem.off = loff; tgt = ltgt } = st.prob.Problem.store.Problem.lhs in
    let complex_idx = st.prob.Problem.complex_idx and stamp = st.stamp in
    let lam = st.lam and epoch = st.epoch in
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
            if final st x then agg := lub st !agg lam.(x) else incr unlabeled
          done;
          st.unlabeled.(k) <- !unlabeled;
          st.agg.(k) <- !agg
        end
      done
    done

  (* A binary min-heap of ints in [heap.(0 .. len - 1)] under [less]:
     [heap_push] puts [p] in at [len], [heap_pop] takes the least of the
     [len] entries out; the caller keeps the length. *)
  let heap_push heap len less p =
    let i = ref len in
    while !i > 0 && less p heap.((!i - 1) / 2) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- p

  let heap_pop heap len less =
    let top = heap.(0) and len = len - 1 in
    let last = heap.(len) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < len && less heap.(l + 1) heap.(l) then l + 1 else l in
      if c < len && less heap.(c) last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- last;
    top

  let before (t : int) u = t < u

  (* Incremental mode: [x]'s set is visited at its turn, once per solve,
     unless that turn has passed — a set read by an earlier one is never
     labeled again.  The heap holds turns. *)
  let push_set st x =
    let p = st.prio.Priorities.priority.(x) in
    let t = turn st p in
    if st.queued.(p) <> st.serial && t > st.cur_turn then begin
      st.queued.(p) <- st.serial;
      heap_push st.heap st.heap_len before t;
      st.heap_len <- st.heap_len + 1
    end

  (* Incremental mode, after a set is labeled: a member whose level is not
     [prev]'s ([L.equal], uncounted) — or that [prev] lacks — pushes the
     set of every attribute whose labeling reads it: the lhs of each
     constraint it is the rhs of, and its peers in each complex lhs.  A
     member whose level is not physically [prev]'s is a changed id. *)
  let mark_stale st prev members lo hi =
    let prob = st.prob in
    let push = push_set st in
    let mark ci = Problem.iter_lhs prob ci push in
    for j = lo to hi - 1 do
      let a = members.(j) in
      let fresh = a >= Array.length prev in
      if fresh || st.lam.(a) != prev.(a) then st.last_changed <- max st.last_changed a;
      if fresh || not (L.equal st.lat st.lam.(a) prev.(a)) then begin
        Problem.iter_incoming prob a mark;
        Problem.iter_constr_of prob a (fun ci ->
            if prob.Problem.complex_idx.(ci) >= 0 then mark ci)
      end
    done

  (* Some constraint of [tgt.(i .. e - 1)] is complex. *)
  let rec any_complex complex_idx tgt i e =
    i < e && (complex_idx.(tgt.(i)) >= 0 || any_complex complex_idx tgt (i + 1) e)

  (* No member of [members.(j .. hi - 1)] is in the lhs of a complex
     constraint. *)
  let rec simple_only st members j hi =
    j = hi
    ||
    let { Problem.off; tgt } = st.prob.Problem.constr_of and a = members.(j) in
    (not (any_complex st.prob.Problem.complex_idx tgt off.(a) off.(a + 1)))
    && simple_only st members (j + 1) hi

  (* Priority set [p], its members in (preference, id) order.  The set is
     [members.(lo .. hi - 1)] of the priorities' CSR; a cyclic one is
     sorted in a copy, and gets one lub ([collapse]) if it is
     simple-only, [Try] if not. *)
  let label_turn st p =
    let { Priorities.members; starts; _ } = st.prio in
    let lo = starts.(p - 1) and hi = starts.(p) in
    if hi - lo > 1 then begin
      let sorted = Array.sub members lo (hi - lo) in
      Array.sort (by_pref st) sorted;
      if simple_only st members lo hi then collapse st p sorted
      else label_set st p sorted 0 (hi - lo)
    end
    else label_set st p members lo hi

  (* Incremental mode, turn [t]: its set's members start unlabeled (⊤, not
     final), its rows are rebuilt if the turn opens an epoch, and it is
     labeled as a scratch solve would, with no dirty or stale member left
     out; then its changed members push the sets they feed. *)
  let relabel st prev t =
    let p = set_at st t in
    let { Priorities.members; starts; _ } = st.prio in
    let lo = starts.(p - 1) and hi = starts.(p) in
    if t <> st.cur_turn + 1 then st.epoch <- st.epoch + 1;
    st.cur <- p;
    st.cur_turn <- t;
    for j = lo to hi - 1 do
      let a = members.(j) in
      st.lam.(a) <- st.lam_top;
      st.done_.(a) <- false
    done;
    rebuild st members lo hi;
    st.relabeled <- st.relabeled + 1;
    st.visited <- st.visited + (hi - lo);
    label_turn st p;
    mark_stale st prev members lo hi

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
        let { Priorities.priority; members; starts; max_priority = np; _ } = prio in
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
        (* The available sets, a heap on their keys: each set enters once,
           when its last dependency is labeled, and leaves once, so
           picking the next set allocates nothing. *)
        let heap = Array.make np 0 and avail = ref 0 in
        let less p q = by_pref st key.(p - 1) key.(q - 1) < 0 in
        let add p =
          heap_push heap !avail less p;
          incr avail
        in
        for p = 1 to np do
          if deps.(p) = 0 then add p
        done;
        let order = Array.make np 0 in
        for i = 0 to np - 1 do
          let p = heap_pop heap !avail less in
          decr avail;
          order.(i) <- p;
          (* Labeling [p] discharges every edge into it. *)
          edges_into p (fun q ->
              deps.(q) <- deps.(q) - 1;
              if deps.(q) = 0 then add q)
        done;
        Some order

  (* BIGLOOP: every priority set in [schedule]'s order — in incremental
     mode, every set pushed, taken from the heap in that order, the
     others skipped — then a last look at the budget: a clock warp (or
     hook charge) landing after the last amortized poll must still cancel
     the solve rather than let it return a full solution. *)
  let bigloop st order =
    if st.tracing then Trace.begin_span ~cat:"solver" "bigloop";
    (match (st.prev, order) with
    | Some prev, _ ->
        while st.heap_len > 0 do
          let t = heap_pop st.heap st.heap_len before in
          st.heap_len <- st.heap_len - 1;
          relabel st prev t
        done
    | None, None ->
        for p = st.prio.Priorities.max_priority downto 1 do
          label_turn st p
        done
    | None, Some order -> Array.iter (label_turn st) order);
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
     counters.  λ's ⊤ is [L.top] called again, not [top]: for a boxed
     lattice, sharing [top]'s box would let [glb]'s physical shortcut
     fire on λ's ⊤ and change the counters.

     An incremental solve takes the arrays of the last one that completed
     with its workspace, if they are long enough, and writes only what
     its walk visits: nothing is filled.  λ already holds [prev]'s levels
     when [prev] is what that solve returned ([synced]), and is copied
     from them otherwise; [done_] is reset set by set as [relabel] reaches
     it; [queued] and [stamp] are read against this solve's [serial] and
     epochs, which are past every one the last solve wrote; and [Try]'s
     scratch is all [Idle] once a solve completes.  Arrays it must make
     are of exact size. *)
  let start ?prev ?ub ~(config : Config.t) ({ lat; prob; prio } : problem) =
    let n = Problem.n_attrs prob and nc = prob.Problem.n_complex in
    let np = prio.Priorities.max_priority in
    let lam_top = L.top lat in
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
          | Some h
            when Array.length h.done_ >= n
                 && Array.length h.stamp >= nc
                 && Array.length h.queued > np ->
              last
          | _ -> None)
    in
    let lam =
      match (ub, prev, held) with
      | Some ub, _, _ -> ub
      | None, None, _ -> Array.make n lam_top
      | None, Some (_, sol, _, _), Some h when h.synced == sol.levels -> h.lam
      | None, Some (_, sol, _, _), held ->
          let lam = match held with Some h -> h.lam | None -> Array.make n lam_top in
          Array.blit sol.levels 0 lam 0 (Array.length sol.levels);
          lam
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
      config;
      bottom;
      top = L.top lat;
      lam_top;
      n;
      bounds_mode;
      stats = Instr.create ();
      lam;
      done_ = (match held with Some h -> h.done_ | None -> Array.make n false);
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
      serial = (match held with Some h -> h.serial + 1 | None -> 1);
      queued =
        (match held with
        | Some h -> h.queued
        | None -> if incremental then Array.make (np + 1) 0 else [||]);
      heap =
        (match held with
        | Some h -> h.heap
        | None -> if incremental then Array.make np 0 else [||]);
      heap_len = 0;
      order = None;
      pos = None;
      cur = 0;
      cur_turn = -np - 1  (* before every set's turn, in either order *);
      stamp =
        (match held with
        | Some h -> h.stamp
        | None -> if incremental then Array.make nc 0 else [||]);
      epoch = (match held with Some h -> h.epoch + 1 | None -> 1);
      relabeled = 0;
      visited = 0;
      last_changed = -1;
      synced = [||];
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

  (* The attributes an incremental solve took [prev]'s levels for: those
     of every set it did not visit. *)
  let reused st = if Option.is_some st.prev then st.n - st.visited else 0

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
    Metrics.add (Metrics.counter "solver/reused_attrs") (reused st);
    if Option.is_some st.prev then
      Metrics.add (Metrics.counter "solver/visited_sets") st.relabeled;
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

  (* The last-labeled member of the lhs [ltgt.(lo .. hi - 1)] under
     [priority] and the set turns [pos]: the latest turn, then the last
     in the set's (preference, id) order. *)
  let last_labeled st priority pos ltgt lo hi =
    let last = ref ltgt.(lo) in
    for j = lo + 1 to hi - 1 do
      let a = ltgt.(j) and b = !last in
      let c = Int.compare (turn_in pos priority.(a)) (turn_in pos priority.(b)) in
      if c > 0 || (c = 0 && by_pref st a b > 0) then last := a
    done;
    !last

  (* Incremental mode across two problems: [pp], the one [prev] solved,
     has a prefix of [st]'s attributes.  Besides the sets [run] pushes
     for every attribute [pp] lacks (rule (a): its set is labeled whole),
     this pushes every set whose attributes [pp] has are not exactly one
     of [pp]'s sets, a merged or split component (rule (b)), and the sets
     of the lhs of every complex constraint whose last-labeled member
     (the one that runs [Minlevel]) differs between the two problems'
     Bigloop orders: [st]'s here, [pp]'s own schedule there (rule (c)).
     A constraint with a member [pp] lacks has no such member in [pp], so
     its lhs is pushed too.  Neither rule can fire when [st] carries
     [pp]'s own priorities ({!Priorities.carry}) and no upgrade
     preference reorders a set: [run] then does not call this. *)
  let widen st (pp : problem) =
    let n0 = Problem.n_attrs pp.prob in
    let { Priorities.priority; members; starts; max_priority = np; _ } = st.prio
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
        push_set st members.(lo)
    done;
    let old_pos = set_positions pp.prio (schedule st pp.prob pp.prio) in
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
          || last_labeled st priority st.pos tgt lo hi
             <> last_labeled st old old_pos tgt lo hi
        then
          for j = lo to hi - 1 do
            push_set st tgt.(j)
          done
      end
    done

  (* An incremental solve's result.  With no changed id it is [prev]
     itself: its levels array and assignment list.  Otherwise its levels
     are one copy of λ, which the workspace keeps writing, and its
     assignment has pairs built up to [last_changed] and [prev]'s own list
     from [last_changed + 1] on, whose pairs hold the same names (the
     problems share their first ids) and the same levels. *)
  let incremental_result st (prev : solution) =
    let last = st.last_changed in
    if last < 0 then (prev.levels, prev.assignment)
    else
      let lam = st.lam in
      let rec drop k l = match l with _ :: rest when k > 0 -> drop (k - 1) rest | l -> l in
      let rec pairs a acc = if a < 0 then acc else pairs (a - 1) ((attr_name st a, lam.(a)) :: acc) in
      (Array.sub lam 0 st.n, pairs last (drop (last + 1) prev.assignment))

  (* MAIN after [compile]'s priorities, the one entry path of every mode:
     [prev] is the problem an earlier solution solved, that solution, the
     attributes whose constraints changed since (see {!solve_incremental})
     and the workspace a completed solve leaves its state in for the
     next; [ub] starts every attribute at its upper bound (§6).  An
     incremental solve pushes the sets of the dirty attributes, of those
     [pp] lacks and of those [widen] finds before its walk. *)
  let run ?prev ?ub ~config problem =
    with_balanced_spans @@ fun () ->
    let st = start ?prev ?ub ~config problem in
    let order =
      if st.tracing then
        Trace.with_span ~cat:"solver" "schedule" (fun () -> schedule st st.prob st.prio)
      else schedule st st.prob st.prio
    in
    (match prev with
    | None -> ()
    | Some (pp, _, dirty, _) ->
        st.order <- order;
        st.pos <- set_positions st.prio order;
        List.iter (push_set st) dirty;
        for a = Problem.n_attrs pp.prob to st.n - 1 do
          push_set st a
        done;
        if pp != problem && not (problem.prio == pp.prio && Option.is_none st.pref) then
          widen st pp);
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
              [ ("reused", Trace.Int (reused st)); ("relabeled_sets", Trace.Int st.relabeled) ])
        "solve";
    if st.metering then publish st;
    let levels, assignment =
      match prev with
      | Some (_, sol, _, ws) ->
          let levels, _ as result = incremental_result st sol in
          st.synced <- levels;
          ws.last <- Some st;
          result
      | None -> (st.lam, List.init st.n (fun a -> (attr_name st a, st.lam.(a))))
    in
    { levels; assignment; stats; reused = reused st }

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
