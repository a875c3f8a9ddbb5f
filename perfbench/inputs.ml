(* Seeded inputs, rendered to the text formats the program reads.

   The code under test only ever sees text: the lattice file is rendered
   by [Minup_diffcheck.Instance] (levels renamed v0, v1, …) and policies
   by the policy-file renderer, [Parse.render].  The benchmark keeps the
   structured form next to the text so it can check outputs. *)

module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Cst = Minup_constraints.Cst
module Parse = Minup_constraints.Parse
module Gen = Minup_workload.Gen_constraints
module Gen_lattice = Minup_workload.Gen_lattice
module Prng = Minup_workload.Prng
module Instance = Minup_diffcheck.Instance
module Mat = Instance.Materialize (Explicit)

type lattice = { lat_text : string; lat : Explicit.t }

(* [lat] is parsed back from [lat_text], so policies generated against it
   use exactly the level names a request resolves. *)
let lattice_of src =
  let lat_text = Instance.lat_file (Mat.instance src ~attrs:[] ~csts:[] ~bounds:[]) in
  match Lattice_file.parse lat_text with
  | Ok lat -> { lat_text; lat }
  | Error e ->
      failwith (Format.asprintf "benchmark lattice: %a" Lattice_file.pp_error e)

(* A 4x4 grid: 16 levels, height 6, up to two covers below a level. *)
let grid () = lattice_of (Gen_lattice.chain_product [ 3; 3 ])

(* A 16-level chain: forward lowering walks it one cover at a time. *)
let chain () = lattice_of (Gen_lattice.chain_product [ 15 ])

type policy = {
  attrs : string list;
  csts : Explicit.level Cst.t list;
  text : string;  (** the policy file *)
}

let render lat ~attrs csts =
  Parse.render
    ~level_to_string:(Explicit.level_to_string lat)
    { Parse.attrs; csts; upper_bounds = [] }

let policy { lat; _ } (attrs, csts) = { attrs; csts; text = render lat ~attrs csts }

let non_bottom lat =
  List.filter (fun l -> l <> Explicit.bottom lat) (Explicit.all lat)

(* The shape of the Thm. 5.2 acyclic experiments: two simple and half a
   complex constraint per attribute, a level floor on every fourth. *)
let acyclic_spec lat n =
  {
    Gen.n_attrs = n;
    n_simple = 2 * n;
    n_complex = n / 2;
    max_lhs = 4;
    n_constants = n / 4;
    constants = non_bottom lat;
  }

let acyclic l rng n = policy l (Gen.acyclic rng (acyclic_spec l.lat n))

let name i = Printf.sprintf "A%d" i

(* The policy [Gen_constraints.single_scc] makes with no chords and one
   floor: one constraint cycle A0 >= A1 >= … >= A(n-1) >= A0 through all
   [n] attributes, with a floor in the middle of the chain.  Every [Try]
   walks most of the cycle, the paper's quadratic case.  The generator
   puts the floor on a random attribute, and the cost of a solve depends
   on where it lands; here it sits on the middle attribute, so a policy's
   cost depends on its size alone. *)
let single_scc l n =
  let mid = List.nth (Explicit.all l.lat) (Explicit.cardinal l.lat / 2) in
  let cycle = List.init n (fun i -> Cst.simple (name i) (Cst.Attr (name ((i + 1) mod n)))) in
  policy l (List.init n name, Cst.simple (name (n / 2)) (Cst.Level mid) :: cycle)

(* An acyclic policy plus [n_rings] rings of [ring_size] attributes among
   the highest-numbered ones.  Generated edges run from lower to higher
   attribute numbers, so the dirty closure of an edit (which walks edges
   backwards) reaches a ring only when the edit touches the top
   attributes.  Returns the policy and the ring members. *)
let acyclic_with_rings l rng n ~n_rings ~ring_size =
  let attrs, csts = Gen.acyclic rng (acyclic_spec l.lat n) in
  let rings =
    List.init n_rings (fun r ->
        let hi = n - 1 - (r * ring_size) in
        List.init ring_size (fun k -> hi - ring_size + 1 + k))
  in
  let ring_csts =
    List.concat_map
      (fun members ->
        let m = Array.of_list members in
        List.init ring_size (fun k ->
            Cst.simple (name m.(k)) (Cst.Attr (name m.((k + 1) mod ring_size)))))
      rings
  in
  (policy l (attrs, csts @ ring_csts), List.concat rings)
