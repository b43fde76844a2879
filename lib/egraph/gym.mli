(** Interchange with the extraction-gym JSON format.

    Three of the paper's datasets ship in the egraphs-good
    extraction-gym repository using this serialization:

    {v
    { "nodes": { "<node-id>": { "op": "...", "cost": 1.5,
                                "eclass": "<class-id>",
                                "children": ["<node-id>", ...] }, ... },
      "root_eclasses": ["<class-id>", ...] }
    v}

    Note the gym quirk: children name *e-nodes*, and the edge target is
    the named node's owning e-class. Costs default to 1. Multiple root
    e-classes are bundled under a synthetic zero-cost root e-node, so
    extraction still selects exactly one e-node per needed class. *)

val of_json : Json.t -> Egraph.t
(** @raise Json.Parse_error on shape errors; @raise Failure on an empty
    node set, dangling node references, a missing root, or a root
    e-class that holds no e-node. *)

val of_json_string : string -> Egraph.t
val read_file : string -> Egraph.t

val to_json : Egraph.t -> Json.t
(** Gym-format export. Node ids are ["n<i>"], class ids ["c<j>"]; a
    synthetic "bundle-roots" node is not added (our e-graphs always have
    a single root class). *)

val to_json_string : ?pretty:bool -> Egraph.t -> string
val write_file : string -> Egraph.t -> unit
