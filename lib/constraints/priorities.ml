type t = { priority : int array; members : int array; starts : int array; max_priority : int }

let size t p = t.starts.(p) - t.starts.(p - 1)
let set t p = Array.sub t.members t.starts.(p - 1) (size t p)

(* Both passes are iterative DFS over the CSR indexes, with the explicit
   call stack held in preallocated int arrays ([node], [pos], and for the
   backward pass [lpos]): a frame is a node plus a cursor into its
   successors, advanced one successor at a time, so the traversal order
   matches the recursive presentation in the paper.  Each attribute is
   pushed at most once per pass, so [n] frames suffice.  [priority] is
   also the visit mark of both passes: nonzero once visited — [-1] in
   the forward pass, the attribute's priority in the backward one. *)
let compute p =
  Minup_obs.Trace.with_span ~cat:"constraints"
    ~args:[ ("attrs", Minup_obs.Trace.Int (Problem.n_attrs p)) ]
    "priorities.compute"
  @@ fun () ->
  let n = Problem.n_attrs p in
  let { Problem.lhs = { Problem.off = loff; tgt = ltgt }; rhs; _ } = p.Problem.store in
  let priority = Array.make n 0 in
  let node = Array.make n 0 and pos = Array.make n 0 in
  (* Pass 1: forward DFS (edges lhs member → rhs attribute, in constraint
     order), recording attributes as their visit concludes. *)
  let finish = Array.make n 0 and n_finished = ref 0 in
  Minup_obs.Trace.with_span ~cat:"constraints" "priorities.dfs_forward"
    (fun () ->
      let { Problem.off; tgt } = p.Problem.constr_of in
      for root = 0 to n - 1 do
        if priority.(root) = 0 then begin
          priority.(root) <- -1;
          node.(0) <- root;
          pos.(0) <- off.(root);
          let sp = ref 1 in
          while !sp > 0 do
            let top = !sp - 1 in
            let a = node.(top) and i = pos.(top) in
            if i = off.(a + 1) then begin
              finish.(!n_finished) <- a;
              incr n_finished;
              sp := top
            end
            else begin
              pos.(top) <- i + 1;
              (* [b >= 0]: an attribute rhs ([Problem.rhs_is_attr], written
                 out: a call per edge is not inlined across modules). *)
              let b = rhs.(tgt.(i)) in
              if b >= 0 && priority.(b) = 0 then begin
                priority.(b) <- -1;
                node.(!sp) <- b;
                pos.(!sp) <- off.(b);
                incr sp
              end
            end
          done
        end
      done);
  (* Pass 2: walk the attributes in reverse finishing order, assigning a
     fresh priority to each unvisited one and sweeping its
     backward-reachable unvisited region (edges rhs → every lhs member)
     into the same priority set.  [members] holds every set back to back,
     in discovery order; set [k] starts at [starts.(k)]. *)
  Array.fill priority 0 n 0;
  let members = Array.make n 0 and n_members = ref 0 in
  let starts = Array.make (n + 1) 0 in
  let max_priority = ref 0 in
  let discover x =
    priority.(x) <- !max_priority;
    members.(!n_members) <- x;
    incr n_members
  in
  Minup_obs.Trace.with_span ~cat:"constraints" "priorities.dfs_backward"
    (fun () ->
      let { Problem.off; tgt } = p.Problem.incoming in
      let lpos = Array.make n 0 in
      for k = n - 1 downto 0 do
        let root = finish.(k) in
        if priority.(root) = 0 then begin
          starts.(!max_priority) <- !n_members;
          incr max_priority;
          discover root;
          node.(0) <- root;
          pos.(0) <- off.(root);
          lpos.(0) <- 0;
          let sp = ref 1 in
          while !sp > 0 do
            let top = !sp - 1 in
            let a = node.(top) and i = pos.(top) in
            if i = off.(a + 1) then sp := top
            else begin
              let ci = tgt.(i) and j = lpos.(top) in
              if loff.(ci) + j = loff.(ci + 1) then begin
                pos.(top) <- i + 1;
                lpos.(top) <- 0
              end
              else begin
                lpos.(top) <- j + 1;
                let b = ltgt.(loff.(ci) + j) in
                if priority.(b) = 0 then begin
                  discover b;
                  node.(!sp) <- b;
                  pos.(!sp) <- off.(b);
                  lpos.(!sp) <- 0;
                  incr sp
                end
              end
            end
          done
        end
      done);
  starts.(!max_priority) <- n;
  { priority; members; starts; max_priority = !max_priority }
