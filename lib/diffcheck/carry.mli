(** The priority carry ({!Minup_constraints.Priorities.carry}) held to a
    scratch {!Minup_constraints.Priorities.compute} on random edits.

    A batch draws a small policy of one of the three
    {!Minup_workload.Gen_constraints} shapes, with a few bound rows after
    its constraints as a session lays them out, and one to four deltas:
    constraints added (attribute or level right-hand side, lhs over old
    and new attributes) and removed, bounds set and cleared, and new
    attributes, each maybe with a row from it into an old one.  Each
    added or removed edge is checked against the old problem's
    priorities, as a session checks its deltas; when every edge keeps
    the carry, the carried priorities of the rebuilt problem must equal
    its computed ones in every field.  The same deltas, as row edits
    ({!Minup_constraints.Problem.edit}), are applied in place to the old
    problem built with [Spare] room; when it has room for them, the
    edited problem must equal the rebuilt one in every field
    ({!problem_difference}). *)

type outcome =
  | Checked of { carried : bool; edited : bool }
      (** [carried]: no edge change refused the carry, and the carried
          priorities equal the scratch ones; [edited]: the old problem had
          room for the edits, and the edited problem equals the rebuilt
          one *)
  | Differs of string  (** the named field of the carried priorities or edited problem differs *)

(** [problem_difference want got] — the first field of [got] that differs
    from [want]'s, each compared over its used part: [n_attrs], [rows],
    the lhs CSR, [rhs], the levels up to the number of level rows,
    [complex_idx], [n_complex], [constr_of] and [incoming]. *)
val problem_difference :
  'l Minup_constraints.Problem.t -> 'l Minup_constraints.Problem.t -> string option

(** One batch, drawn from [rng]. *)
val batch : Minup_workload.Prng.t -> outcome

(** [sweep ~seed ~batches] — [batches] batches from one generator seeded
    with [seed]: how many were carried, how many edited, and the first
    that differs, as its index and field. *)
val sweep : seed:int -> batches:int -> int * int * (int * string) option
