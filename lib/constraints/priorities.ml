type t = {
  priority : int array;
  members : int array;
  starts : int array;
  max_priority : int;
  finish : int array;
  parent : int array;
}

let size t p = t.starts.(p) - t.starts.(p - 1)
let set t p = Array.sub t.members t.starts.(p - 1) (size t p)

(* Runs both passes over the roots [lo .. n - 1], every attribute below
   [lo] already visited ([priority] -1) and every other one not (0), and
   returns the number [k] of sets found, numbered [1 .. k] with their
   members at [members.(0 ..)] and [starts.(0 .. k)].

   Both are iterative DFS over the CSR indexes, with the explicit call
   stack held in two preallocated int arrays: a frame is a cursor,
   advanced one successor at a time, so the traversal order matches the
   recursive presentation in the paper.  Each attribute is pushed at
   most once per pass, so [n - lo] frames suffice.  [priority] is also
   the visit mark of both passes: nonzero once visited — [-1] in the
   forward pass, the attribute's priority in the backward one. *)
let passes p ~lo ~priority ~members ~starts ~finish ~parent =
  let n = Problem.n_attrs p in
  let { Problem.lhs = { Problem.off = loff; tgt = ltgt }; rhs; _ } = p.Problem.store in
  let node = Array.make (n - lo) 0 and pos = Array.make (n - lo) 0 in
  (* Pass 1: forward DFS (edges lhs member → rhs attribute, in constraint
     order) over [node]/[pos] frames, recording where each attribute's
     visit concludes in [finish], and the finishing order itself,
     reversed, in [starts]: the attribute that finishes [j]-th is
     [starts.(n - 1 - j)], which pass 2 reads from the front while it
     writes the set starts behind its reading position. *)
  Minup_obs.Trace.with_span ~cat:"constraints" "priorities.dfs_forward" (fun () ->
      let { Problem.off; tgt } = p.Problem.constr_of in
      let n_finished = ref lo in
      for root = lo to n - 1 do
        if priority.(root) = 0 then begin
          priority.(root) <- -1;
          parent.(root) <- -1;
          node.(0) <- root;
          pos.(0) <- off.(root);
          let sp = ref 1 in
          while !sp > 0 do
            let top = !sp - 1 in
            let a = node.(top) and i = pos.(top) in
            if i = off.(a + 1) then begin
              finish.(a) <- !n_finished;
              starts.(n - 1 - !n_finished) <- a;
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
                parent.(b) <- a;
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
     in discovery order; set [k] starts at [starts.(k)].  A frame is the
     position [node] of the constraint it is on in the [incoming] index
     and the position [pos] of the lhs member it is at in the store: its
     attribute is that constraint's rhs, so it needs no slot of its own.
     An attribute with no incoming constraint gets no frame. *)
  Array.fill priority lo (n - lo) 0;
  let n_members = ref 0 and k = ref 0 in
  Minup_obs.Trace.with_span ~cat:"constraints" "priorities.dfs_backward" (fun () ->
      let { Problem.off; tgt } = p.Problem.incoming in
      (* [x] discovered with [sp] frames on the stack: the new count. *)
      let discover x sp =
        priority.(x) <- !k;
        members.(!n_members) <- x;
        incr n_members;
        let i = off.(x) in
        if i < off.(x + 1) then begin
          node.(sp) <- i;
          pos.(sp) <- loff.(tgt.(i));
          sp + 1
        end
        else sp
      in
      for r = 0 to n - 1 - lo do
        let root = starts.(r) in
        if priority.(root) = 0 then begin
          starts.(!k) <- !n_members;
          incr k;
          let sp = ref (discover root 0) in
          while !sp > 0 do
            let top = !sp - 1 in
            let i = node.(top) and j = pos.(top) in
            let ci = tgt.(i) in
            if j = loff.(ci + 1) then begin
              let i = i + 1 in
              if i = off.(rhs.(ci) + 1) then sp := top
              else begin
                node.(top) <- i;
                pos.(top) <- loff.(tgt.(i))
              end
            end
            else begin
              pos.(top) <- j + 1;
              let b = ltgt.(j) in
              if priority.(b) = 0 then sp := discover b !sp
            end
          done
        end
      done);
  starts.(!k) <- n - lo;
  !k

let compute p =
  Minup_obs.Trace.with_span ~cat:"constraints"
    ~args:[ ("attrs", Minup_obs.Trace.Int (Problem.n_attrs p)) ]
    "priorities.compute"
  @@ fun () ->
  let n = Problem.n_attrs p in
  let priority = Array.make n 0 and members = Array.make n 0 and starts = Array.make (n + 1) 0 in
  let finish = Array.make n 0 and parent = Array.make n 0 in
  let max_priority = passes p ~lo:0 ~priority ~members ~starts ~finish ~parent in
  { priority; members; starts; max_priority; finish; parent }

type verdict = Keeps | Finishes_late | Not_later | Tree_edge | Same_set | Into_new

(* An edge out of an attribute [t] does not have is one out of a new
   attribute, which [carry]'s passes see; one into such an attribute
   from an old one would have to be followed by the old passes. *)
let added t a b =
  let n = Array.length t.priority in
  if a >= n then Keeps
  else if b >= n then Into_new
  else if t.finish.(b) > t.finish.(a) then Finishes_late
  else if t.priority.(a) >= t.priority.(b) then Not_later
  else Keeps

let removed t a b =
  let n = Array.length t.priority in
  if a >= n then Keeps
  else if b >= n then Into_new
  else if t.parent.(b) = a then Tree_edge
  else if t.priority.(a) = t.priority.(b) then Same_set
  else Keeps

let describe why a b =
  match why with
  | Keeps -> Printf.sprintf "%s -> %s keeps the priorities" a b
  | Finishes_late -> Printf.sprintf "%s finishes after %s" b a
  | Not_later -> Printf.sprintf "%s's set is not after %s's" b a
  | Tree_edge -> Printf.sprintf "%s was reached from %s" b a
  | Same_set -> Printf.sprintf "%s and %s share a set" a b
  | Into_new -> Printf.sprintf "%s gains an edge into the new %s" a b

(* The new attributes' sets come first, numbered by [passes] over their
   roots alone, with every old attribute visited; the old sets follow,
   their members, starts and priorities shifted past the new ones. *)
let carry t p =
  let lo = Array.length t.priority and n = Problem.n_attrs p in
  if n = lo then t
  else begin
    let priority = Array.make n (-1) and members = Array.make n 0 in
    let starts = Array.make (n + 1) 0 in
    let finish = Array.make n 0 and parent = Array.make n 0 in
    Array.blit t.finish 0 finish 0 lo;
    Array.blit t.parent 0 parent 0 lo;
    Array.fill priority lo (n - lo) 0;
    let k = passes p ~lo ~priority ~members ~starts ~finish ~parent in
    Array.blit t.members 0 members (n - lo) lo;
    for q = 0 to t.max_priority do
      starts.(k + q) <- t.starts.(q) + n - lo
    done;
    for a = 0 to lo - 1 do
      priority.(a) <- t.priority.(a) + k
    done;
    { priority; members; starts; max_priority = k + t.max_priority; finish; parent }
  end
