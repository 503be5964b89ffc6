(** Partitioned transition relation over a {!Symenc} encoding.

    One relational conjunct per transition, clustered greedily by
    support overlap up to a size cap; the image of a state set is the
    disjunction over clusters of the fused relational product
    ({!Bdd.and_exists}) followed by the next-to-current renaming
    ({!Bdd.unprime}).  Places outside a cluster's support are never
    mentioned by its relation, which is what keeps the partitioned form
    small where the monolithic relation blows up. *)

type cluster = {
  members : int list;  (** transition ids, increasing *)
  support : int list;  (** union of member supports, increasing *)
  cur_vars : int list;  (** current-state variables of [support] *)
  rel : Bdd.node;
}

type t = { mgr : Bdd.manager; clusters : cluster array }

(** Default cap on a cluster's support size (places). *)
val default_cluster_max : int

(** [plan enc ~cluster_max] is the deterministic greedy clustering:
    transitions are visited by the lowest {!Symenc.t.level} in their
    support (ties in id order), so clusters follow the variable order.
    Returns transition-id groups (each increasing) in creation order,
    with each group's merged support.  Exposed for tests and
    diagnostics. *)
val plan : Symenc.t -> cluster_max:int -> (int list * int list) list

(** [build mgr enc] builds the clustered relation, grouped by
    [plan enc ~cluster_max:default_cluster_max]. *)
val build : Bdd.manager -> Symenc.t -> t

val n_clusters : t -> int

(** [image r s] is the set of one-step successors of the state set [s],
    over the current-state variables. *)
val image : t -> Bdd.node -> Bdd.node
