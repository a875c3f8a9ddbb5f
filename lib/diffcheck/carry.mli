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
    its computed ones in every field. *)

type outcome =
  | Refused  (** some edge change refused the carry *)
  | Carried  (** carried, and equal to the scratch priorities *)
  | Differs of string  (** carried, and the named field differs *)

(** One batch, drawn from [rng]. *)
val batch : Minup_workload.Prng.t -> outcome

(** [sweep ~seed ~batches] — [batches] batches from one generator seeded
    with [seed]: how many were carried, and the first that differs, as
    its index and field. *)
val sweep : seed:int -> batches:int -> int * (int * string) option
