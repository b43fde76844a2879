let of_json json =
  let nodes = Json.get_object (Json.member "nodes" json) in
  let roots = Json.get_list (Json.member "root_eclasses" json) in
  if nodes = [] then failwith "Gym.of_json: empty e-graph";
  (* first pass: class-id strings -> builder classes *)
  let b = Egraph.Builder.create ~name:"gym" () in
  let class_of = Hashtbl.create 64 in
  let builder_class cls_name =
    match Hashtbl.find_opt class_of cls_name with
    | Some c -> c
    | None ->
        let c = Egraph.Builder.add_class b in
        Hashtbl.replace class_of cls_name c;
        c
  in
  (* node-id -> owning class name, for resolving children *)
  let owner = Hashtbl.create (List.length nodes) in
  List.iter
    (fun (node_id, spec) ->
      Hashtbl.replace owner node_id (Json.get_string (Json.member "eclass" spec)))
    nodes;
  List.iter
    (fun (node_id, spec) ->
      let cls = builder_class (Hashtbl.find owner node_id) in
      let op =
        match Json.member "op" spec with
        | Json.String s -> s
        | Json.Null -> node_id
        | other -> Json.to_string other
      in
      let cost =
        match Json.member "cost" spec with Json.Null -> 1.0 | v -> Json.get_number v
      in
      let children =
        match Json.member "children" spec with
        | Json.Null -> []
        | v ->
            List.map
              (fun child ->
                let child_id = Json.get_string child in
                match Hashtbl.find_opt owner child_id with
                | Some cls_name -> builder_class cls_name
                | None ->
                    failwith
                      (Printf.sprintf "Gym.of_json: node %S references missing node %S" node_id
                         child_id))
              (Json.get_list v)
      in
      ignore (Egraph.Builder.add_node b ~cls ~op ~cost ~children))
    nodes;
  (* every class holding an e-node has a builder class by now *)
  let root_classes =
    List.map
      (fun r ->
        let name = Json.get_string r in
        match Hashtbl.find_opt class_of name with
        | Some c -> c
        | None -> failwith (Printf.sprintf "Gym.of_json: root e-class %S has no e-nodes" name))
      roots
  in
  match root_classes with
  | [] -> failwith "Gym.of_json: no root e-classes"
  | [ root ] -> Egraph.Builder.freeze b ~root
  | several ->
      (* bundle multiple roots under one synthetic class *)
      let root = Egraph.Builder.add_class b in
      ignore
        (Egraph.Builder.add_node b ~cls:root ~op:"bundle-roots" ~cost:0.0 ~children:several);
      Egraph.Builder.freeze b ~root

let of_json_string s = of_json (Json.parse s)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json_string (really_input_string ic (in_channel_length ic)))

let to_json g =
  let node_entry i =
    ( Printf.sprintf "n%d" i,
      Json.Object
        [
          ("op", Json.String g.Egraph.ops.(i));
          ("cost", Json.Number g.Egraph.costs.(i));
          ("eclass", Json.String (Printf.sprintf "c%d" g.Egraph.node_class.(i)));
          ( "children",
            Json.Array
              (Array.to_list
                 (Array.map
                    (fun child_class ->
                      (* gym children are node ids: use the first member
                         of the child class as the representative *)
                      Json.String
                        (Printf.sprintf "n%d" g.Egraph.class_nodes.(child_class).(0)))
                    g.Egraph.children.(i))) );
        ] )
  in
  Json.Object
    [
      ("nodes", Json.Object (List.init (Egraph.num_nodes g) node_entry));
      ("root_eclasses", Json.Array [ Json.String (Printf.sprintf "c%d" g.Egraph.root) ]);
    ]

let to_json_string ?pretty g = Json.to_string ?pretty (to_json g)

let write_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json_string ~pretty:true g))
