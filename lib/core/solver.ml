open Minup_constraints
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Clock = Minup_obs.Clock

(* A cooperative cancellation budget, shared by every solver instantiation
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

  let compile ~lattice ?attrs csts =
    Trace.with_span ~cat:"solver" "compile" @@ fun () ->
    match Problem.compile ?attrs csts with
    | Error _ as e -> e
    | Ok prob -> Ok { lat = lattice; prob; prio = Priorities.compute prob }

  let compile_exn ~lattice ?attrs csts =
    match compile ~lattice ?attrs csts with
    | Ok p -> p
    | Error e -> invalid_arg (Format.asprintf "Solver.compile: %a" Problem.pp_error e)

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

  (* The whole algorithm, shared between the plain (§§3–5), upper-bound
     (§6) and incremental re-solve modes.  [init] gives the starting level
     of every attribute (⊤, or the derived upper bound); [bounds_mode]
     forces Minlevel to run for every attribute of every complex
     constraint; [frozen] pins attributes at known-final levels (the
     incremental path — see {!solve_incremental} for the contract). *)
  let solve_internal ~(config : Config.t) ?frozen ~init ~bounds_mode
      { lat; prob; prio } =
    let residual = config.Config.residual in
    let check_aggregate = config.Config.check_aggregate in
    let budget = config.Config.budget in
    let n = Problem.n_attrs prob in
    let csts = prob.Problem.csts in
    let stats = Instr.create () in
    (* Observability is latched once per solve: every instrumentation site
       below is guarded by one of these two booleans, so the disabled path
       costs exactly one branch per site — no clock reads, no allocation,
       and (critically) no effect on the [Instr] counters, which stay
       identical whether tracing is on or off. *)
    let tracing = Trace.enabled () in
    let metering = Metrics.enabled () in
    (* Registry lookups take a mutex; resolve the handles once per solve so
       metered parallel batches do not serialize on per-attribute lookups. *)
    let m =
      if metering then
        Some
          ( Metrics.counter "solver/back_assigned",
            Metrics.counter "solver/forward_lowered",
            Metrics.histogram "solver/try_iters_per_scc" )
      else None
    in
    let t_solve0 = if tracing || metering then Clock.now_ns () else 0L in
    if tracing then
      Trace.begin_span ~ts_ns:t_solve0 ~cat:"solver"
        ~args:
          [
            ("attrs", Trace.Int n);
            ("csts", Trace.Int (Array.length csts));
            ("bounds_mode", Trace.Bool bounds_mode);
          ]
        "solve";
    let bottom = L.bottom lat in
    let top = L.top lat in
    (* Instrumented lattice operations.  ⊥ is the identity of lub and ⊤ the
       identity of glb, so those cases skip the lattice operation (and the
       counter) entirely — folds that start from ⊥, and glbs against
       still-at-⊤ attributes, are frequent enough in the algorithm that this
       shortcut alone removes a sizable slice of the lattice-op bill.  The
       test is *physical* equality: one compare instruction, exact for
       immediate level representations (every int-backed lattice), and for
       boxed levels merely a missed shortcut — [L.lub]/[L.glb] then handle
       the identity case themselves, so results are unchanged. *)
    let lub a b =
      if a == bottom then b
      else if b == bottom then a
      else begin
        stats.Instr.lub <- stats.Instr.lub + 1;
        L.lub lat a b
      end
    in
    let glb a b =
      if a == top then b
      else if b == top then a
      else begin
        stats.Instr.glb <- stats.Instr.glb + 1;
        L.glb lat a b
      end
    in
    let leq a b =
      stats.Instr.leq <- stats.Instr.leq + 1;
      L.leq lat a b
    in
    let lam = Array.init n init in
    let done_ = Array.make n false in
    let unlabeled = Array.copy prob.Problem.lhs_len in
    (* Cooperative cancellation, one path for every solve.  Each
       scheduling event — each Try worklist pop and each Bigloop attribute —
       charges one step and compares it with [b.next_check]; only when the
       step reaches it does [slow] run: it trips on the step budget, polls
       the wall clock when the step is a multiple of 64 (a clock read per
       attribute costs >10% on back-propagation-heavy workloads), and
       schedules the next check.  One last check after the Bigloop always
       polls the clock, so a deadline — or a hook's clock warp landing
       after the last amortized poll — is noticed even on instances too
       small to ever reach 64 steps.  A solve without a budget counts its
       steps in an [unbounded] one: no clock reads, and no effect on the
       [Instr] counters ([steps] lives in the budget, not in [stats]). *)
    let b, t0 =
      match budget with
      | None -> (unbounded (), 0L)
      | Some b ->
          reschedule b;
          (b, b.now ())
    in
    let deadline_ns =
      match b.deadline_ms with
      | None -> None
      | Some ms -> Some (ms, Int64.add t0 (Int64.mul (Int64.of_int ms) 1_000_000L))
    in
    let cancel reason =
      let partial = ref [] and count = ref 0 in
      for a = n - 1 downto 0 do
        if done_.(a) then begin
          incr count;
          partial := (Problem.attr_name prob a, lam.(a)) :: !partial
        end
      done;
      raise
        (Cancelled
           {
             reason;
             progress =
               {
                 partial = !partial;
                 n_finalized = !count;
                 n_attrs = n;
                 steps = b.steps;
               };
           })
    in
    let check_steps () =
      match b.max_steps with
      | Some m when b.steps > m -> cancel (Steps { max_steps = m })
      | _ -> ()
    in
    let check_clock () =
      match deadline_ns with
      | Some (ms, d) ->
          let t = b.now () in
          if Int64.compare t d > 0 then
            cancel
              (Deadline
                 {
                   deadline_ms = ms;
                   elapsed_ms = Int64.to_float (Int64.sub t t0) /. 1e6;
                 })
      | None -> ()
    in
    let slow () =
      check_steps ();
      if b.steps land 63 = 0 then check_clock ();
      reschedule b
    in
    (* Incremental left-hand-side lub aggregates, one per *complex*
       constraint (indexed by [Problem.complex_idx]): [agg.(k)] is the lub
       of the levels of the finalized lhs members of the constraint with
       dense id [k].  An attribute's level never changes once finalized
       (back-assigned attributes are final immediately; forward lowering
       only ever touches not-yet-done attributes), so each member enters
       the aggregate exactly once and [Minlevel] no longer refolds the
       whole lhs on every call.  [finalize] is reached exactly once per
       attribute — from the two mutually exclusive branches of the Bigloop
       body — so no guard flag is needed, and ⊥ levels are skipped outright
       since ⊥ is the lub identity. *)
    let agg = Array.make prob.Problem.n_complex bottom in
    (* The hot loops walk the CSR rows directly. *)
    let { Problem.off = co_off; tgt = co_tgt } = prob.Problem.constr_of in
    let { Problem.off = cco_off; tgt = cco_tgt } = prob.Problem.complex_constr_of in
    let finalize a =
      let la = lam.(a) in
      if la != bottom then
        for i = cco_off.(a) to cco_off.(a + 1) - 1 do
          let k = cco_tgt.(i) in
          agg.(k) <- lub agg.(k) la
        done
    in
    let rhs_level (c : _ Problem.cst) =
      match c.rhs with Problem.Rlevel l -> l | Problem.Rattr b -> lam.(b)
    in
    let rhs_done (c : _ Problem.cst) =
      match c.rhs with Problem.Rlevel _ -> true | Problem.Rattr b -> done_.(b)
    in
    (* Incremental mode: pin the frozen attributes before the Bigloop —
       their levels are final, they count as labeled for every constraint
       they appear in (so [unlabeled] and the lhs-lub aggregates see them
       exactly as if the Bigloop had just finalized them), and the Bigloop
       skips them outright.  On the non-incremental path [skip] stays
       all-false and costs one array read per attribute visit. *)
    let skip = Array.make n false in
    (match frozen with
    | None -> ()
    | Some f ->
        for a = 0 to n - 1 do
          match f a with
          | None -> ()
          | Some l ->
              skip.(a) <- true;
              done_.(a) <- true;
              lam.(a) <- l;
              for i = co_off.(a) to co_off.(a + 1) - 1 do
                let ci = co_tgt.(i) in
                if prob.Problem.complex.(ci) then
                  unlabeled.(ci) <- unlabeled.(ci) - 1
              done
        done;
        for a = 0 to n - 1 do
          if skip.(a) then finalize a
        done);
    (* The pre-aggregate computation of "lub of the other lhs members": a
       full refold of the constraint's lhs.  Kept as the reference the
       incremental aggregate is checked against (uninstrumented, so
       self-checking does not distort the counters). *)
    let lubothers_reference a (c : _ Problem.cst) =
      Array.fold_left
        (fun acc a' -> if a' = a then acc else L.lub lat acc lam.(a'))
        bottom c.lhs
    in
    (* MINLEVEL(A, lhs, rhs): a minimal level A can assume without violating
       the constraint, given the current levels of the other lhs members. *)
    let minlevel a ci (c : _ Problem.cst) =
      stats.Instr.minlevel_calls <- stats.Instr.minlevel_calls + 1;
      let k = prob.Problem.complex_idx.(ci) in
      let lubothers =
        if unlabeled.(ci) = 0 then
          (* Every lhs member has been considered, and an attribute's
             Consider iteration runs to completion before the next begins,
             so all members other than [a] are finalized — the aggregate
             already covers everyone else: O(1) instead of O(|lhs|) lubs. *)
          agg.(k)
        else
          (* Some lhs members are still provisional (bounds mode evaluates
             complex constraints before all members are labeled): fold just
             those on top of the aggregate.  [done_] coincides with
             "finalized" for every attribute except [a] itself, which the
             fold skips explicitly. *)
          Array.fold_left
            (fun acc a' ->
              if a' = a || done_.(a') then acc else lub acc lam.(a'))
            agg.(k) c.lhs
      in
      if check_aggregate then begin
        let reference = lubothers_reference a c in
        if not (L.equal lat reference lubothers) then
          invalid_arg
            (Printf.sprintf
               "Solver: incremental lhs-lub aggregate diverged from the \
                reference fold at attribute %s"
               (Problem.attr_name prob a))
      end;
      let target = rhs_level c in
      match residual with
      | Some r -> r lat ~target ~others:lubothers
      | None ->
          if leq target lubothers then bottom
          else begin
            (* Descend one cover at a time; stop when no direct descendant
               of [last] keeps the constraint satisfiable. *)
            let last = ref lam.(a) in
            let continue = ref true in
            while !continue do
              match
                List.find_opt
                  (fun l' -> leq target (lub l' lubothers))
                  (L.covers_below lat !last)
              with
              | Some l' -> last := l'
              | None -> continue := false
            done;
            !last
          end
    in
    (* TRY(A, l): propagate the candidate lowering λ(A) := l forward through
       the not-yet-done part of the constraint graph.  Returns whether some
       set of simultaneous lowerings keeps every constraint satisfied; if
       so it has already written them into [lam], and they are the
       attributes [touched.(0 .. !n_touched - 1)] of the call.  A
       constraint whose finalized right-hand side breaks fails the call.

       All bookkeeping lives in flat scratch allocated once per solve, so
       a worklist iteration allocates nothing:
       - the paper's Tocheck and Tolower maps share [pend] (which map holds
         [x]) and [pend_lvl] (the level recorded there);
       - the Tocheck worklist is the int FIFO [fifo.(head .. !fifo_len - 1)],
         emptied by every call; it starts small and doubles, since a
         re-entry pushes an attribute a second time;
       - [touched] is a stack holding each attribute the call writes once,
         so the reset on the way out — success or [Try_failed] — costs the
         call's own work, not O(n).
       When a call succeeds every touched attribute is in Tolower: each
       move into Tocheck pushes a worklist entry, whose pop moves it on. *)
    let pend = Array.make n Idle and pend_lvl = Array.make n bottom in
    let fifo = ref (Array.make 16 0) and fifo_len = ref 0 in
    let touched = Array.make n 0 and n_touched = ref 0 in
    (* [a], full at [len] entries, doubled. *)
    let grow a len fill =
      let grown = Array.make (2 * len) fill in
      Array.blit a 0 grown 0 len;
      grown
    in
    let push x =
      if !fifo_len = Array.length !fifo then fifo := grow !fifo !fifo_len 0;
      !fifo.(!fifo_len) <- x;
      incr fifo_len
    in
    (* Record the pending lowering [x := lvl] in Tocheck. *)
    let to_check x lvl =
      if pend.(x) = Idle then begin
        touched.(!n_touched) <- x;
        incr n_touched
      end;
      pend.(x) <- To_check;
      pend_lvl.(x) <- lvl;
      push x
    in
    let try_lower a0 l0 =
      stats.Instr.try_calls <- stats.Instr.try_calls + 1;
      n_touched := 0;
      fifo_len := 0;
      to_check a0 l0;
      let head = ref 0 in
      let ok =
        try
          while !head < !fifo_len do
            b.steps <- b.steps + 1;
            if b.steps >= b.next_check then slow ();
            let x = !fifo.(!head) in
            incr head;
            (* A popped attribute no longer in Tocheck is a stale entry:
               the pair was moved or replaced. *)
            if pend.(x) = To_check then begin
              pend.(x) <- To_lower;
              stats.Instr.try_iterations <- stats.Instr.try_iterations + 1;
              for i = co_off.(x) to co_off.(x + 1) - 1 do
                let ci = co_tgt.(i) in
                stats.Instr.constraint_checks <-
                  stats.Instr.constraint_checks + 1;
                let c = csts.(ci) in
                let lhs = c.lhs in
                let level = ref bottom in
                for j = 0 to Array.length lhs - 1 do
                  let a'' = lhs.(j) in
                  level :=
                    lub !level
                      (if pend.(a'') = To_lower then pend_lvl.(a'') else lam.(a''))
                done;
                let level = !level in
                match c.rhs with
                | Problem.Rlevel target ->
                    if not (leq target level) then raise Try_failed
                | Problem.Rattr b ->
                    if done_.(b) then begin
                      if not (leq lam.(b) level) then raise Try_failed
                    end
                    else if not (leq lam.(b) level) then begin
                      let newlevel = glb lam.(b) level in
                      if pend.(b) = Idle then to_check b newlevel
                      else begin
                        let l'' = pend_lvl.(b) in
                        if not (leq l'' newlevel) then
                          (* The recorded lowering and the one now
                             required are incomparable (or ours is
                             lower): the attribute must end below both,
                             i.e. at their glb, and is checked again. *)
                          to_check b (glb l'' newlevel)
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
      for i = 0 to !n_touched - 1 do
        let x = touched.(i) in
        if ok then lam.(x) <- pend_lvl.(x);
        pend.(x) <- Idle
      done;
      ok
    in
    (* The lowerings of the last successful [try_lower], newest first, for
       the [Try_lower] event. *)
    let lowered () =
      let acc = ref [] in
      for i = 0 to !n_touched - 1 do
        let x = touched.(i) in
        acc := (Problem.attr_name prob x, lam.(x)) :: !acc
      done;
      !acc
    in
    (* DSet(A, l): the covers of λ(A) that dominate [l] — exactly the
       maximal levels strictly below λ(A) that still dominate it — in
       cover order, into [dset.(0 .. !dset_len - 1)]. *)
    let dset = ref (Array.make 4 bottom) and dset_len = ref 0 in
    let compute_dset a l =
      dset_len := 0;
      List.iter
        (fun l' ->
          if leq l l' then begin
            if !dset_len = Array.length !dset then
              dset := grow !dset !dset_len bottom;
            !dset.(!dset_len) <- l';
            incr dset_len
          end)
        (L.covers_below lat lam.(a))
    in
    (* BIGLOOP. *)
    let attr_name = Problem.attr_name prob in
    (* BigLoop may process the priority sets (= SCCs) in any order that
       labels every right-hand side before its left-hand sides — i.e. any
       sink-first topological order of the condensation.  The default is
       decreasing priority, as in the paper.  An upgrade preference picks a
       different valid order: the attribute that absorbs a complex
       constraint's upgrade is the last of its lhs to be labeled, so sets
       and, within a set, attributes holding low-preference attributes are
       scheduled first and high-preference ones last.  The preference is
       asked once per attribute. *)
    let pref =
      Option.map
        (fun f -> Array.init n (fun a -> f (attr_name a)))
        config.Config.upgrade_preference
    in
    (* Attributes ordered by (preference, id). *)
    let by_pref a b =
      match pref with
      | None -> Int.compare a b
      | Some pref -> (
          match Int.compare pref.(a) pref.(b) with 0 -> Int.compare a b | c -> c)
    in
    let compute_set_order () =
      let np = prio.Priorities.max_priority in
      match pref with
      | None -> List.init np (fun i -> np - i)
      | Some _ ->
          (* Kahn over the condensation, following edges lhs-set → rhs-set
             backward: a set is available once every set it depends on
             (reachable via constraints) is labeled.  Among available sets,
             take the one holding the least-preferred attribute first.  A
             set's key is that attribute, (preference, id): computed once,
             and unique, since the sets are disjoint. *)
          let module IS = Set.Make (Int) in
          let out = Array.make (np + 1) IS.empty in
          let into = Array.make (np + 1) IS.empty in
          Array.iter
            (fun (c : _ Problem.cst) ->
              match c.rhs with
              | Problem.Rlevel _ -> ()
              | Problem.Rattr b ->
                  let pb = prio.Priorities.priority.(b) in
                  Array.iter
                    (fun a ->
                      let pa = prio.Priorities.priority.(a) in
                      if pa <> pb then begin
                        out.(pa) <- IS.add pb out.(pa);
                        into.(pb) <- IS.add pa into.(pb)
                      end)
                    c.lhs)
            csts;
          let key = Array.make (np + 1) (-1) in
          for p = 1 to np do
            Array.iter
              (fun a -> if key.(p) < 0 || by_pref a key.(p) < 0 then key.(p) <- a)
              prio.Priorities.sets.(p - 1)
          done;
          let module Avail = Set.Make (struct
            type t = int

            let compare p q =
              match by_pref key.(p) key.(q) with 0 -> Int.compare p q | c -> c
          end) in
          let available = ref Avail.empty in
          for p = 1 to np do
            if IS.is_empty out.(p) then available := Avail.add p !available
          done;
          let order = ref [] in
          for _ = 1 to np do
            let p = Avail.min_elt !available in
            order := p :: !order;
            available := Avail.remove p !available;
            IS.iter
              (fun q ->
                out.(q) <- IS.remove p out.(q);
                if IS.is_empty out.(q) then available := Avail.add q !available)
              into.(p)
          done;
          List.rev !order
    in
    let set_order =
      if tracing then
        Trace.with_span ~cat:"solver" "schedule" compute_set_order
      else compute_set_order ()
    in
    (* Event values are built only when someone listens. *)
    let on_event = config.Config.on_event in
    if tracing then Trace.begin_span ~cat:"solver" "bigloop";
    List.iter
      (fun p ->
      let members =
        match prio.Priorities.sets.(p - 1) with
        | [| _ |] as singleton -> singleton
        | set ->
            let members = Array.copy set in
            Array.sort by_pref members;
            members
      in
      (* A span per non-trivial priority set (= SCC subject to forward
         lowering); singleton sets are far too numerous on acyclic inputs
         to each deserve a span of their own. *)
      let scc_span = tracing && Array.length members > 1 in
      if scc_span then
        Trace.begin_span ~cat:"solver"
          ~args:
            [ ("priority", Trace.Int p); ("size", Trace.Int (Array.length members)) ]
          "scc";
      Array.iter
        (fun a ->
          if skip.(a) then ()
          else begin
          b.steps <- b.steps + 1;
          if b.steps >= b.next_check then slow ();
          (match on_event with
          | Some f -> f (Consider { attr = attr_name a; priority = p })
          | None -> ());
          let t_attr0 = if tracing then Clock.now_ns () else 0L in
          done_.(a) <- true;
          let l = ref bottom in
          for i = co_off.(a) to co_off.(a + 1) - 1 do
            let ci = co_tgt.(i) in
            let c = csts.(ci) in
            let complex = prob.Problem.complex.(ci) in
            if complex then unlabeled.(ci) <- unlabeled.(ci) - 1;
            if rhs_done c then begin
              if not complex then l := lub !l (rhs_level c)
              else if unlabeled.(ci) = 0 || bounds_mode then
                l := lub !l (minlevel a ci c)
            end
            else done_.(a) <- false
          done;
          let l = !l in
          if done_.(a) then begin
            lam.(a) <- l;
            finalize a;
            (* Whether the scan was a back-propagation is only known now,
               so the span is emitted retroactively from the timestamp
               taken before the scan. *)
            if tracing then
              Trace.span_at ~start_ns:t_attr0 ~end_ns:(Clock.now_ns ())
                ~cat:"solver"
                ~args:
                  [ ("attr", Trace.Str (attr_name a)); ("priority", Trace.Int p) ]
                "back_propagate";
            (match m with
            | Some (back, _, _) -> Metrics.incr back
            | None -> ());
            match on_event with
            | Some f -> f (Back_assigned { attr = attr_name a; level = l })
            | None -> ()
          end
          else begin
            if tracing then begin
              Trace.span_at ~start_ns:t_attr0 ~end_ns:(Clock.now_ns ())
                ~cat:"solver"
                ~args:[ ("attr", Trace.Str (attr_name a)) ]
                "minlevel_scan";
              Trace.begin_span ~cat:"solver"
                ~args:
                  [ ("attr", Trace.Str (attr_name a)); ("priority", Trace.Int p) ]
                "try_lower"
            end;
            let tries0 = stats.Instr.try_calls
            and iters0 = stats.Instr.try_iterations in
            (* Forward lowering through the cycle: try each DSet candidate
               in turn, and start over from the new λ(A)'s DSet after every
               success. *)
            compute_dset a l;
            let next = ref 0 in
            while !next < !dset_len do
              let target = !dset.(!next) in
              incr next;
              let ok = try_lower a target in
              (match on_event with
              | Some f ->
                  f
                    (Try_lower
                       {
                         attr = attr_name a;
                         target;
                         lowered = (if ok then Some (lowered ()) else None);
                       })
              | None -> ());
              if ok then begin
                compute_dset a l;
                next := 0
              end
            done;
            done_.(a) <- true;
            finalize a;
            let try_iters = stats.Instr.try_iterations - iters0 in
            if tracing then
              Trace.end_span ~cat:"solver"
                ~args:
                  [
                    ("tries", Trace.Int (stats.Instr.try_calls - tries0));
                    ("iterations", Trace.Int try_iters);
                  ]
                "try_lower";
            (match m with
            | Some (_, fwd, iters_h) ->
                Metrics.incr fwd;
                Metrics.observe iters_h try_iters
            | None -> ());
            match on_event with
            | Some f -> f (Finalized { attr = attr_name a; level = lam.(a) })
            | None -> ()
          end
          end)
        members;
      if scc_span then Trace.end_span ~cat:"solver" "scc")
      set_order;
    (* A last look at the budget once the Bigloop completes: a clock warp
       (or hook charge) landing after the last amortized poll must still
       cancel the solve rather than let it return a full solution. *)
    check_steps ();
    check_clock ();
    if tracing then begin
      Trace.end_span ~cat:"solver" "bigloop";
      Trace.end_span ~cat:"solver"
        ~args:
          [
            ("lub", Trace.Int stats.Instr.lub);
            ("leq", Trace.Int stats.Instr.leq);
            ("minlevel_calls", Trace.Int stats.Instr.minlevel_calls);
            ("try_calls", Trace.Int stats.Instr.try_calls);
          ]
        "solve"
    end;
    if metering then begin
      Metrics.incr (Metrics.counter "solver/solves");
      Metrics.observe
        (Metrics.histogram "solver/solve_ns")
        (Int64.to_int (Clock.elapsed_ns ~since:t_solve0))
    end;
    {
      levels = lam;
      assignment =
        List.init n (fun a -> (attr_name a, lam.(a)));
      stats;
    }

  (* A raising callback (residual, upgrade preference, on_event handler)
     aborts [solve_internal] with its "solve" / "bigloop" / "scc" /
     "try_lower" spans still open; close them on the way out so an exported
     trace keeps its B/E nesting even when a solve dies. *)
  let with_balanced_spans f =
    let depth = Trace.open_depth () in
    match f () with
    | s -> s
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Trace.unwind_to depth;
        Printexc.raise_with_backtrace e bt

  let solve ?(config = Config.default) ({ lat; _ } as problem) =
    with_balanced_spans (fun () ->
        solve_internal ~config
          ~init:(fun _ -> L.top lat)
          ~bounds_mode:false problem)

  let solve_incremental ?(config = Config.default) ~frozen
      ({ lat; _ } as problem) =
    with_balanced_spans (fun () ->
        solve_internal ~config ~frozen
          ~init:(fun _ -> L.top lat)
          ~bounds_mode:false problem)

  let reuse_priorities problem prob = { problem with prob }

  let find problem solution attr =
    match Problem.attr_id problem.prob attr with
    | Some a -> Some solution.levels.(a)
    | None -> None

  let satisfies { lat; prob; _ } levels =
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
    let n = Problem.n_attrs prob in
    let top = L.top lat in
    let ub = Array.make n top in
    try
      List.iter
        (fun (name, l) ->
          match Problem.attr_id prob name with
          | Some a -> ub.(a) <- L.glb lat ub.(a) l
          | None -> raise (Inconsistent (Unknown_attr name)))
        bounds;
      (* Push bounds through the graph to the greatest fixpoint: across a
         constraint, the rhs can be no higher than the lub of the lhs
         bounds. *)
      let queue = Queue.create () in
      Array.iteri (fun ci _ -> Queue.push ci queue) prob.Problem.csts;
      while not (Queue.is_empty queue) do
        let ci = Queue.pop queue in
        let c = prob.Problem.csts.(ci) in
        match c.rhs with
        | Problem.Rlevel _ -> ()
        | Problem.Rattr b ->
            let incoming =
              Array.fold_left
                (fun acc a -> L.lub lat acc ub.(a))
                (L.bottom lat) c.lhs
            in
            let nb = L.glb lat ub.(b) incoming in
            if not (L.equal lat nb ub.(b)) then begin
              ub.(b) <- nb;
              Problem.iter_constr_of prob b (fun cj -> Queue.push cj queue)
            end
      done;
      (* Inconsistencies surface at security-level nodes: a level-rhs
         constraint whose lhs, even at its bounds, cannot reach the
         target. *)
      Array.iter
        (fun (c : _ Problem.cst) ->
          match c.rhs with
          | Problem.Rattr _ -> ()
          | Problem.Rlevel target ->
              let incoming =
                Array.fold_left
                  (fun acc a -> L.lub lat acc ub.(a))
                  (L.bottom lat) c.lhs
              in
              if not (L.leq lat target incoming) then
                raise
                  (Inconsistent
                     (Unsatisfiable
                        { cst = Problem.cst_to_source prob c; bound = incoming })))
        prob.Problem.csts;
      Ok ub
    with Inconsistent i -> Error i

  let solve_with_bounds ?(config = Config.default) problem bounds =
    match derive_upper_bounds problem bounds with
    | Error _ as e -> e
    | Ok ub ->
        Ok
          (with_balanced_spans (fun () ->
               solve_internal ~config
                 ~init:(fun a -> ub.(a))
                 ~bounds_mode:true problem))
end
