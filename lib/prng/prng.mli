(** Seeded deterministic PRNG (splitmix64), shared by every component
    that needs reproducible randomness: the workload generator's key
    streams, the model checker's interleaving fuzzer.

    Replay and pinned traces must stay bit-identical across runs and
    OCaml versions, so nothing here touches [Random] (whose algorithm
    changed across releases) or any global state: a [t] is a single
    mutable 64-bit cell advanced by the splitmix64 finalizer. *)

type t

val create : int -> t
(** PRNG seeded from one integer. *)

val of_list : int list -> t
(** PRNG seeded from several integers (e.g. [seed; stream]), each mixed
    in through the splitmix64 finalizer — replaces ad-hoc
    [Random.State.make [| seed; k |]] plumbing. *)

val copy : t -> t

val next64 : t -> int64
(** The raw 64-bit output. *)

val bits63 : t -> int
(** A uniform non-negative integer (62 random bits — the widest draw
    that cannot wrap OCaml's 63-bit native int negative). *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); [bound] must be
    positive.  Uses the high bits (modulo bias is < 2^-40 for any
    realistic bound). *)

val float : t -> float
(** Uniform in [0, 1), from 53 bits. *)

val mix : int -> int -> int
(** [mix a b] deterministically combines two seeds into one (pure;
    used to derive per-stream seeds such as [mix seed node]). *)
