open Minup_constraints
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Clock = Minup_obs.Clock

(* A cooperative cancellation budget, shared by every solver instantiation
   (it involves no lattice types).  [steps] counts scheduling iterations —
   one per Bigloop attribute visit, one per Try worklist pop — the units of
   progress the algorithm is guaranteed to make; [charge] lets
   fault-injection hooks burn budget without doing work.  The wall clock is
   an injectable [now] so tests (and the fault simulator) can warp time
   deterministically instead of sleeping. *)
type budget = {
  deadline_ms : int option;
  max_steps : int option;
  now : unit -> int64;
  mutable steps : int;
}

let budget ?deadline_ms ?max_steps ?(now = Clock.now_ns) () =
  (match deadline_ms with
  | Some ms when ms < 0 -> invalid_arg "Solver.budget: deadline_ms < 0"
  | _ -> ());
  (match max_steps with
  | Some s when s < 0 -> invalid_arg "Solver.budget: max_steps < 0"
  | _ -> ());
  { deadline_ms; max_steps; now; steps = 0 }

let charge b k = if k > 0 then b.steps <- b.steps + min k (max_int - b.steps)

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
    let on_event = match config.Config.on_event with
      | None -> fun _ -> ()
      | Some f -> f
    in
    let residual = config.Config.residual in
    let upgrade_preference = config.Config.upgrade_preference in
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
    (* Cooperative cancellation.  [check_fine] runs once per scheduling
       event — each Try worklist pop and each Bigloop attribute: it
       charges one step, trips on the step budget immediately, but polls
       the wall clock only every 64 steps so neither hot loop pays a
       clock read per iteration (a clock read per attribute costs >10%
       on back-propagation-heavy workloads).  [check_final] runs once
       after the Bigloop and always polls the clock, so a deadline — or
       a hook's clock warp landing after the last amortized poll — is
       noticed even on instances too small to ever reach 64 steps.  With
       no budget both checks are the unit closure: one indirect call per
       site, no clock reads, and no effect on the [Instr] counters
       ([steps] lives in the budget, not in [stats]). *)
    let check_fine, check_final =
      match budget with
      | None ->
          let nop () = () in
          (nop, nop)
      | Some b ->
          let t0 = b.now () in
          let deadline_ns =
            match b.deadline_ms with
            | None -> None
            | Some ms ->
                Some (ms, Int64.add t0 (Int64.mul (Int64.of_int ms) 1_000_000L))
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
          let fine () =
            b.steps <- b.steps + 1;
            check_steps ();
            if b.steps land 63 = 0 then check_clock ()
          in
          let final () =
            check_steps ();
            check_clock ()
          in
          (fine, final)
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
       the not-yet-done part of the constraint graph.  Returns the set of
       simultaneous lowerings that keeps every constraint satisfied, or
       None if some constraint with a finalized right-hand side breaks.

       The paper's Tocheck and Tolower maps share one scratch pair,
       allocated once per solve: [pend.(x)] says which map holds [x], and
       [pend_lvl.(x)] the level recorded there.  Every attribute a call
       writes is on [touched], and the call resets exactly those entries
       on the way out, whether it succeeds or fails — so a call costs its
       own work, not O(n). *)
    let pend = Array.make n Idle and pend_lvl = Array.make n bottom in
    let queue = Queue.create () in
    let try_lower a0 l0 =
      stats.Instr.try_calls <- stats.Instr.try_calls + 1;
      pend.(a0) <- To_check;
      pend_lvl.(a0) <- l0;
      Queue.push a0 queue;
      let touched = ref [ a0 ] in
      (* [touched] lets us read the final Tolower cheaply. *)
      let enqueue b lvl =
        if pend.(b) = Idle then touched := b :: !touched;
        pend.(b) <- To_check;
        pend_lvl.(b) <- lvl;
        Queue.push b queue
      in
      let result =
        try
          while not (Queue.is_empty queue) do
            check_fine ();
            let x = Queue.pop queue in
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
                let level =
                  Array.fold_left
                    (fun acc a'' ->
                      if pend.(a'') = To_lower then lub acc pend_lvl.(a'')
                      else lub acc lam.(a''))
                    bottom c.lhs
                in
                if rhs_done c then begin
                  if not (leq (rhs_level c) level) then raise Try_failed
                end
                else
                  match c.rhs with
                  | Problem.Rlevel _ -> assert false
                  | Problem.Rattr b ->
                      if not (leq lam.(b) level) then begin
                        let newlevel = glb lam.(b) level in
                        if pend.(b) = Idle then enqueue b newlevel
                        else begin
                          let l'' = pend_lvl.(b) in
                          if not (leq l'' newlevel) then begin
                            (* The recorded lowering and the one now
                               required are incomparable (or ours is
                               lower): the attribute must end below both,
                               i.e. at their glb. *)
                            let nl = glb l'' newlevel in
                            if pend.(b) = To_lower then pend.(b) <- Idle;
                            enqueue b nl
                          end
                          (* Otherwise the pending lowering already implies
                             satisfaction; leave it alone. *)
                        end
                      end
              done
            end
          done;
          Some
            (List.filter_map
               (fun x ->
                 if pend.(x) = To_lower then Some (x, pend_lvl.(x)) else None)
               !touched)
        with Try_failed -> None
      in
      List.iter (fun x -> pend.(x) <- Idle) !touched;
      Queue.clear queue;
      result
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
       scheduled first and high-preference ones last. *)
    let member_key =
      match upgrade_preference with
      | None -> fun a -> (0, a)
      | Some pref -> fun a -> (pref (Problem.attr_name prob a), a)
    in
    let compute_set_order () =
      match upgrade_preference with
      | None ->
          List.init prio.Priorities.max_priority (fun i ->
              prio.Priorities.max_priority - i)
      | Some pref ->
          (* Kahn over the condensation, following edges lhs-set → rhs-set
             backward: a set is available once every set it depends on
             (reachable via constraints) is labeled.  Among available sets,
             take the one holding the least-preferred attribute first. *)
          let np = prio.Priorities.max_priority in
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
          let set_key p =
            Array.fold_left
              (fun acc a -> min acc (pref (Problem.attr_name prob a), a))
              (max_int, max_int)
              prio.Priorities.sets.(p - 1)
          in
          let order = ref [] in
          let available =
            ref
              (List.filter
                 (fun p -> IS.is_empty out.(p))
                 (List.init np (fun i -> i + 1)))
          in
          for _ = 1 to np do
            match
              List.sort
                (fun p q -> compare (set_key p) (set_key q))
                !available
            with
            | [] -> assert false
            | p :: rest ->
                order := p :: !order;
                available := rest;
                IS.iter
                  (fun q ->
                    out.(q) <- IS.remove p out.(q);
                    if IS.is_empty out.(q) then available := q :: !available)
                  into.(p)
          done;
          List.rev !order
    in
    let set_order =
      if tracing then
        Trace.with_span ~cat:"solver" "schedule" compute_set_order
      else compute_set_order ()
    in
    if tracing then Trace.begin_span ~cat:"solver" "bigloop";
    List.iter
      (fun p ->
      let members =
        match prio.Priorities.sets.(p - 1) with
        | [| _ |] as singleton -> singleton
        | set ->
            let members = Array.copy set in
            Array.sort (fun a b -> compare (member_key a) (member_key b)) members;
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
          check_fine ();
          on_event (Consider { attr = attr_name a; priority = p });
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
          if done_.(a) then begin
            lam.(a) <- !l;
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
            on_event (Back_assigned { attr = attr_name a; level = !l })
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
            (* Forward lowering through the cycle: DSet holds the maximal
               levels strictly below λ(A) that still dominate the lower
               bound l — exactly the covers of λ(A) dominating l. *)
            let dset () =
              List.filter (fun l' -> leq !l l') (L.covers_below lat lam.(a))
            in
            let ds = ref (dset ()) in
            let continue = ref true in
            while !continue do
              match !ds with
              | [] -> continue := false
              | l'' :: rest -> (
                  ds := rest;
                  match try_lower a l'' with
                  | Some lowers ->
                      List.iter (fun (a', l') -> lam.(a') <- l') lowers;
                      on_event
                        (Try_lower
                           {
                             attr = attr_name a;
                             target = l'';
                             lowered =
                               Some
                                 (List.map
                                    (fun (a', l') -> (attr_name a', l'))
                                    lowers);
                           });
                      ds := dset ()
                  | None ->
                      on_event
                        (Try_lower
                           { attr = attr_name a; target = l''; lowered = None }))
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
            on_event (Finalized { attr = attr_name a; level = lam.(a) })
          end
          end)
        members;
      if scc_span then Trace.end_span ~cat:"solver" "scc")
      set_order;
    (* A last look at the budget once the Bigloop completes: a clock warp
       (or hook charge) landing after the last amortized poll must still
       cancel the solve rather than let it return a full solution. *)
    check_final ();
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
