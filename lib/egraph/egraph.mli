(** E-graphs: the compact representation of equivalent program spaces.

    Terminology follows the paper (§2): an e-graph partitions {e-nodes}
    (operators/values) into {e-classes} of functional equivalents. Edges
    point from an e-node to the e-classes of its operands. One e-class is
    the root. Extraction selects one e-node per needed e-class such that
    the completeness constraints (a)/(b) and the acyclicity constraint
    (c) hold.

    Construction goes through a mutable {!Builder}; {!freeze} compiles it
    into an immutable, analysis-rich form in which e-nodes are renumbered
    so that each e-class's members are contiguous (class-major order) —
    the layout the SmoothE kernels exploit (§4.1). *)

type t = private {
  name : string;
  ops : string array;  (** per e-node operator label *)
  costs : float array;  (** per e-node base cost (the linear model's u) *)
  children : int array array;  (** per e-node operand e-class ids (ch_i) *)
  node_class : int array;  (** ec(i): owning e-class of each e-node *)
  class_nodes : int array array;  (** members of each e-class *)
  root : int;  (** root e-class id *)
  class_seg : Segments.t;  (** e-nodes segmented by owning class *)
  parent_edge_node : int array;
      (** flattened pa_j: parent e-node ids, grouped per child e-class
          (deduplicated: a node with a repeated operand class appears once) *)
  parent_seg : Segments.t;  (** segments of [parent_edge_node] per e-class *)
  class_children : int array array;  (** per e-class: child classes of its nodes, deduped *)
  sccs : int array array;  (** Tarjan SCCs over the class graph, reverse topological *)
  scc_of_class : int array;
}

val num_nodes : t -> int
val num_classes : t -> int
val num_edges : t -> int
(** Total operand references (with multiplicity). *)

val node_cost : t -> int -> float
val set_costs : t -> float array -> t
(** Functional update of the per-node cost vector (same e-graph shape).
    @raise Invalid_argument on length mismatch. *)

val is_cyclic : t -> bool
(** True when some SCC of the class graph contains a cycle (size > 1 or a
    self-dependent class). *)

module Builder : sig
  type egraph = t
  type b

  val create : ?name:string -> unit -> b

  val add_class : b -> int
  (** Allocate a fresh, empty e-class and return its id. *)

  val add_node : b -> cls:int -> op:string -> cost:float -> children:int list -> int
  (** Add an e-node to class [cls]; children are e-class ids (allowed to
      be forward references to classes added later). Returns the builder
      node id. *)

  val num_classes : b -> int
  val num_nodes : b -> int

  val freeze : b -> root:int -> egraph
  (** Compile. Validates that every class is non-empty when reachable
      from the root, that children refer to existing classes, and strips
      classes unreachable from the root (and their nodes).
      @raise Invalid_argument on dangling references or an empty root. *)
end

val restrict : t -> keep:bool array -> (t * int array) option
(** [restrict g ~keep] rebuilds [g] with only the e-nodes whose [keep]
    bit is set, cascading the removal of any node whose child class
    loses all members, then stripping classes no longer reachable from
    the root. Returns the restricted e-graph and [old_node_of_new]
    (original id of each surviving node, in the rebuilt numbering), or
    [None] when the root class loses every member. Both the acyclicity
    pre-pruner and the hybrid extractor's heuristic shrink go through
    this one rebuild so their solution lifting agrees.
    @raise Invalid_argument when [keep] is not [num_nodes g] long. *)

(** {1 Extraction solutions} *)

module Solution : sig
  type egraph = t

  type s = {
    choice : int option array;  (** per e-class: selected e-node, if the class is selected *)
  }

  val of_choices : egraph -> (int * int) list -> s
  (** [(class, node)] pairs; unlisted classes are unselected. *)

  val of_node_choice : egraph -> int array -> s
  (** [of_node_choice g pick] where [pick.(j)] is a node id (a candidate
      choice for every class): materialises the selection reachable from
      the root — the decode step shared by the samplers and the genetic
      baseline. *)

  type validity = Valid | No_root | Incomplete of int | Cyclic

  val validate : egraph -> s -> validity
  (** Checks completeness constraints (a) and (b) and acyclicity (c)
      restricted to classes reachable from the root through the
      selection. [Incomplete c] names a selected class whose chosen
      node has an unselected child class. *)

  val is_valid : egraph -> s -> bool

  val dag_cost : egraph -> s -> float
  (** Σ cost over selected e-nodes reachable from the root, each counted
      once — the DAG cost whose optimisation is NP-hard (§2). Infinite
      when the solution is invalid. *)

  val dag_cost_with : egraph -> costs:float array -> s -> float
  (** Same, under an alternative cost vector. *)

  val tree_cost : egraph -> s -> float
  (** Cost with shared subterms double-counted (what the egg greedy
      heuristic optimises). Infinite on invalid/cyclic selections. *)

  val selected_nodes : egraph -> s -> int list
  (** Selected e-nodes reachable from the root. *)

  val to_dense : egraph -> s -> float array
  (** The binary vector s ∈ {0,1}^N of §2 (selected & reachable = 1). *)

  val size : egraph -> s -> int
end

(** {1 Statistics (Table 1)} *)

module Stats : sig
  type egraph = t

  type r = {
    nodes : int;
    classes : int;
    edges : int;
    avg_degree : float;  (** d(v): mean operand count per e-node *)
    max_class_size : int;
    density : float;  (** edges / (N·M), the paper's edge density *)
    cyclic : bool;
    scc_count : int;
    largest_scc : int;
  }

  val compute : egraph -> r
  val pp : Format.formatter -> r -> unit
end

(** {1 Serialization}

    A line-oriented text format, stable for golden tests:
    {v
    egraph <name>
    root <class>
    node <class> <cost> <op> [child-class ...]
    v} *)

module Serial : sig
  type egraph = t

  val to_string : egraph -> string
  val of_string : string -> egraph
  (** @raise Failure on malformed input. *)

  val write_file : string -> egraph -> unit
  val read_file : string -> egraph
end
