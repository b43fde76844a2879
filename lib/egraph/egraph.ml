type t = {
  name : string;
  ops : string array;
  costs : float array;
  children : int array array;
  node_class : int array;
  class_nodes : int array array;
  root : int;
  class_seg : Segments.t;
  parent_edge_node : int array;
  parent_seg : Segments.t;
  class_children : int array array;
  sccs : int array array;
  scc_of_class : int array;
}

let num_nodes g = Array.length g.ops
let num_classes g = Array.length g.class_nodes
let num_edges g = Array.fold_left (fun acc ch -> acc + Array.length ch) 0 g.children
let node_cost g i = g.costs.(i)

let set_costs g costs =
  if Array.length costs <> num_nodes g then invalid_arg "Egraph.set_costs: length mismatch";
  { g with costs = Array.copy costs }

let is_cyclic g =
  Array.exists (fun scc -> Array.length scc > 1) g.sccs
  || Array.exists
       (fun (j : int) -> Array.exists (fun c -> c = j) g.class_children.(j))
       (Array.init (num_classes g) (fun j -> j))

(* Deduplicate a small int array, preserving first-occurrence order. *)
let dedup_ints a =
  let seen = Hashtbl.create (Array.length a) in
  let out = Vec.create () in
  Array.iter
    (fun x ->
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        Vec.push out x
      end)
    a;
  Vec.to_array out

module Builder = struct
  type egraph = t

  type bnode = { b_op : string; b_cost : float; b_children : int array; b_class : int }

  type b = { bname : string; bnodes : bnode Vec.t; bclass_count : int ref }

  let create ?(name = "egraph") () = { bname = name; bnodes = Vec.create (); bclass_count = ref 0 }

  let add_class b =
    let id = !(b.bclass_count) in
    incr b.bclass_count;
    id

  let add_node b ~cls ~op ~cost ~children =
    if cls < 0 || cls >= !(b.bclass_count) then
      invalid_arg (Printf.sprintf "Builder.add_node: class %d not allocated" cls);
    let id = Vec.length b.bnodes in
    Vec.push b.bnodes
      { b_op = op; b_cost = cost; b_children = Array.of_list children; b_class = cls };
    id

  let num_classes b = !(b.bclass_count)
  let num_nodes b = Vec.length b.bnodes

  let freeze b ~root =
    let m0 = !(b.bclass_count) in
    if root < 0 || root >= m0 then invalid_arg "Builder.freeze: root class not allocated";
    let class_members = Array.make m0 [] in
    Vec.iteri
      (fun id n ->
        Array.iter
          (fun c ->
            if c < 0 || c >= m0 then
              invalid_arg
                (Printf.sprintf "Builder.freeze: node %d references missing class %d" id c))
          n.b_children;
        class_members.(n.b_class) <- id :: class_members.(n.b_class))
      b.bnodes;
    Array.iteri (fun c members -> class_members.(c) <- List.rev members) class_members;
    (* Reachability over the builder class graph. *)
    let succ =
      Array.map
        (fun members ->
          let acc = Vec.create () in
          List.iter
            (fun id -> Array.iter (Vec.push acc) (Vec.get b.bnodes id).b_children)
            members;
          dedup_ints (Vec.to_array acc))
        class_members
    in
    let reach = Graph_algo.reachable succ [ root ] in
    (* Renumber reachable classes; every reachable class must be liveable. *)
    let new_class = Array.make m0 (-1) in
    let kept_classes = Vec.create () in
    for c = 0 to m0 - 1 do
      if reach.(c) then begin
        if class_members.(c) = [] then
          invalid_arg (Printf.sprintf "Builder.freeze: reachable class %d is empty" c);
        new_class.(c) <- Vec.length kept_classes;
        Vec.push kept_classes c
      end
    done;
    let m = Vec.length kept_classes in
    (* Renumber nodes class-major. *)
    let ops = Vec.create () in
    let costs = Vec.create () in
    let children = Vec.create () in
    let node_class = Vec.create () in
    let class_nodes = Array.make m [||] in
    let class_lens = Array.make m 0 in
    Vec.iteri
      (fun nc old_c ->
        let members = class_members.(old_c) in
        let ids = Vec.create () in
        List.iter
          (fun id ->
            let n = Vec.get b.bnodes id in
            Vec.push ids (Vec.length ops);
            Vec.push ops n.b_op;
            Vec.push costs n.b_cost;
            Vec.push children (Array.map (fun c -> new_class.(c)) n.b_children);
            Vec.push node_class nc)
          members;
        class_nodes.(nc) <- Vec.to_array ids;
        class_lens.(nc) <- Array.length class_nodes.(nc))
      kept_classes;
    let ops = Vec.to_array ops in
    let costs = Vec.to_array costs in
    let children = Vec.to_array children in
    let node_class = Vec.to_array node_class in
    let class_seg = Segments.of_lens class_lens in
    (* Parent edge lists (deduplicated per node) grouped per child class. *)
    let parents = Array.make m [] in
    Array.iteri
      (fun i ch -> Array.iter (fun c -> parents.(c) <- i :: parents.(c)) (dedup_ints ch))
      children;
    let parent_lens = Array.map List.length parents in
    let parent_seg = Segments.of_lens parent_lens in
    let parent_edge_node = Array.make (Array.fold_left ( + ) 0 parent_lens) 0 in
    let cursor = ref 0 in
    Array.iter
      (fun ps ->
        List.iter
          (fun i ->
            parent_edge_node.(!cursor) <- i;
            incr cursor)
          (List.rev ps))
      parents;
    let class_children =
      Array.map
        (fun ids ->
          let acc = Vec.create () in
          Array.iter (fun id -> Array.iter (Vec.push acc) children.(id)) ids;
          dedup_ints (Vec.to_array acc))
        class_nodes
    in
    let sccs = Graph_algo.tarjan_scc class_children in
    let scc_of_class, _ = Graph_algo.scc_ids class_children in
    {
      name = b.bname;
      ops;
      costs;
      children;
      node_class;
      class_nodes;
      root = new_class.(root);
      class_seg;
      parent_edge_node;
      parent_seg;
      class_children;
      sccs;
      scc_of_class;
    }
end

(* Rebuild the e-graph keeping only the masked nodes. Removal cascades:
   a surviving node whose child class loses every member is removed too,
   until stable. The node mapping replicates freeze's renumbering (kept
   classes ascending, surviving nodes of each class in original id
   order, classes unreachable from the root stripped), which is what
   lets callers lift a solution on the restricted graph back to the
   original ids. *)
let restrict g ~keep =
  let n = num_nodes g and m = num_classes g in
  if Array.length keep <> n then invalid_arg "Egraph.restrict: keep mask length mismatch";
  let removed = Array.init n (fun i -> not keep.(i)) in
  let class_alive c = Array.exists (fun i -> not removed.(i)) g.class_nodes.(c) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if (not removed.(i)) && Array.exists (fun j -> not (class_alive j)) g.children.(i)
      then begin
        removed.(i) <- true;
        changed := true
      end
    done
  done;
  if not (class_alive g.root) then None
  else begin
    let b = Builder.create ~name:g.name () in
    let ids = Array.init m (fun _ -> Builder.add_class b) in
    for i = 0 to n - 1 do
      if not removed.(i) then
        ignore
          (Builder.add_node b
             ~cls:ids.(g.node_class.(i))
             ~op:g.ops.(i) ~cost:g.costs.(i)
             ~children:(Array.to_list (Array.map (fun c -> ids.(c)) g.children.(i))))
    done;
    let restricted = Builder.freeze b ~root:g.root in
    let succ =
      Array.init m (fun c ->
          if class_alive c then begin
            let acc = Vec.create () in
            Array.iter
              (fun i -> if not removed.(i) then Array.iter (Vec.push acc) g.children.(i))
              g.class_nodes.(c);
            Vec.to_array acc
          end
          else [||])
    in
    let reach = Graph_algo.reachable succ [ g.root ] in
    let mapping = Vec.create () in
    for c = 0 to m - 1 do
      if reach.(c) && class_alive c then
        Array.iter (fun i -> if not removed.(i) then Vec.push mapping i) g.class_nodes.(c)
    done;
    let old_node_of_new = Vec.to_array mapping in
    assert (Array.length old_node_of_new = num_nodes restricted);
    Some (restricted, old_node_of_new)
  end

module Solution = struct
  type egraph = t

  type s = { choice : int option array }

  let of_choices g pairs =
    let choice = Array.make (num_classes g) None in
    List.iter
      (fun (c, n) ->
        if g.node_class.(n) <> c then
          invalid_arg (Printf.sprintf "Solution.of_choices: node %d not in class %d" n c);
        choice.(c) <- Some n)
      pairs;
    { choice }

  let of_node_choice g pick =
    if Array.length pick <> num_classes g then
      invalid_arg "Solution.of_node_choice: need one candidate per class";
    let choice = Array.make (num_classes g) None in
    let stack = Vec.create () in
    Vec.push stack g.root;
    while not (Vec.is_empty stack) do
      let c = Vec.pop stack in
      if choice.(c) = None then begin
        let n = pick.(c) in
        if g.node_class.(n) <> c then
          invalid_arg (Printf.sprintf "Solution.of_node_choice: node %d not in class %d" n c);
        choice.(c) <- Some n;
        Array.iter (fun child -> Vec.push stack child) g.children.(n)
      end
    done;
    { choice }

  type validity = Valid | No_root | Incomplete of int | Cyclic

  (* The classes actually used: reachable from the root through chosen
     nodes. Returns None if traversal hits an unselected class. *)
  let reachable_selection g s =
    match s.choice.(g.root) with
    | None -> Error No_root
    | Some _ ->
        let m = num_classes g in
        let used = Array.make m false in
        let stack = Vec.create () in
        let missing = ref None in
        used.(g.root) <- true;
        Vec.push stack g.root;
        while !missing = None && not (Vec.is_empty stack) do
          let c = Vec.pop stack in
          match s.choice.(c) with
          | None -> missing := Some c
          | Some n ->
              Array.iter
                (fun child ->
                  if not used.(child) then begin
                    used.(child) <- true;
                    Vec.push stack child
                  end)
                g.children.(n)
        done;
        (match !missing with
        | Some c -> Error (Incomplete c)
        | None -> Ok used)

  let selection_cyclic g s used =
    (* Build the selected class graph and look for a cycle. *)
    let m = num_classes g in
    let succ =
      Array.init m (fun c ->
          if used.(c) then
            match s.choice.(c) with
            | Some n -> dedup_ints g.children.(n)
            | None -> [||]
          else [||])
    in
    Graph_algo.has_cycle_from succ [ g.root ]

  let validate g s =
    match reachable_selection g s with
    | Error e -> e
    | Ok used -> if selection_cyclic g s used then Cyclic else Valid

  let is_valid g s = validate g s = Valid

  let selected_nodes g s =
    match reachable_selection g s with
    | Error _ -> []
    | Ok used ->
        let acc = ref [] in
        for c = num_classes g - 1 downto 0 do
          if used.(c) then
            match s.choice.(c) with
            | Some n -> acc := n :: !acc
            | None -> ()
        done;
        !acc

  let dag_cost_with g ~costs s =
    if validate g s <> Valid then infinity
    else List.fold_left (fun acc n -> acc +. costs.(n)) 0.0 (selected_nodes g s)

  let dag_cost g s = dag_cost_with g ~costs:g.costs s

  let tree_cost g s =
    if validate g s <> Valid then infinity
    else begin
      let m = num_classes g in
      let memo = Array.make m nan in
      let on_path = Array.make m false in
      let rec cost_of_class c =
        if on_path.(c) then infinity
        else if not (Float.is_nan memo.(c)) then memo.(c)
        else begin
          on_path.(c) <- true;
          let result =
            match s.choice.(c) with
            | None -> infinity
            | Some n ->
                Array.fold_left (fun acc child -> acc +. cost_of_class child) g.costs.(n)
                  g.children.(n)
          in
          on_path.(c) <- false;
          memo.(c) <- result;
          result
        end
      in
      cost_of_class g.root
    end

  let to_dense g s =
    let dense = Array.make (num_nodes g) 0.0 in
    List.iter (fun n -> dense.(n) <- 1.0) (selected_nodes g s);
    dense

  let size g s = List.length (selected_nodes g s)
end

module Stats = struct
  type egraph = t

  type r = {
    nodes : int;
    classes : int;
    edges : int;
    avg_degree : float;
    max_class_size : int;
    density : float;
    cyclic : bool;
    scc_count : int;
    largest_scc : int;
  }

  let compute g =
    let n = num_nodes g and m = num_classes g in
    let e = num_edges g in
    {
      nodes = n;
      classes = m;
      edges = e;
      avg_degree = (if n = 0 then 0.0 else float_of_int e /. float_of_int n);
      max_class_size = Array.fold_left (fun acc c -> max acc (Array.length c)) 0 g.class_nodes;
      density = (if n * m = 0 then 0.0 else float_of_int e /. float_of_int (n * m));
      cyclic = is_cyclic g;
      scc_count = Array.length g.sccs;
      largest_scc = Array.fold_left (fun acc c -> max acc (Array.length c)) 0 g.sccs;
    }

  let pp fmt r =
    Format.fprintf fmt
      "nodes=%d classes=%d edges=%d d(v)=%.2f max|m|=%d density=%.2e cyclic=%b sccs=%d max_scc=%d"
      r.nodes r.classes r.edges r.avg_degree r.max_class_size r.density r.cyclic r.scc_count
      r.largest_scc
end

module Serial = struct
  type egraph = t

  let to_string g =
    let buf = Buffer.create (num_nodes g * 24) in
    Buffer.add_string buf (Printf.sprintf "egraph %s\n" g.name);
    Buffer.add_string buf (Printf.sprintf "classes %d\n" (num_classes g));
    Buffer.add_string buf (Printf.sprintf "root %d\n" g.root);
    for i = 0 to num_nodes g - 1 do
      Buffer.add_string buf
        (Printf.sprintf "node %d %.17g %s" g.node_class.(i) g.costs.(i) g.ops.(i));
      Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %d" c)) g.children.(i);
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf

  let of_string text =
    let lines = String.split_on_char '\n' text in
    (* every parse error names its line; no exception re-wrapping *)
    let fail lineno fmt =
      Printf.ksprintf
        (fun m -> failwith (Printf.sprintf "Egraph.Serial.of_string: line %d: %s" lineno m))
        fmt
    in
    let name = ref "egraph" in
    let root = ref None in
    let builder = ref None in
    let get_builder () =
      match !builder with
      | Some b -> b
      | None ->
          let b = Builder.create ~name:!name () in
          builder := Some b;
          b
    in
    (* node lines in file order, on the file's class ids *)
    let nodes = Vec.create () in
    (* class -> the first line that referenced it as a child, so a class
       that never receives an e-node is reported where it was used *)
    let child_refs : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let node_count : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let class_id lineno what s =
      match int_of_string_opt s with
      | Some c when c >= 0 -> c
      | Some _ -> fail lineno "negative %s %S" what s
      | None -> fail lineno "bad %s %S (expected an integer)" what s
    in
    let parse_line lineno line =
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] | [] -> ()
      | "egraph" :: rest -> name := String.concat " " rest
      | [ "classes"; k ] ->
          (* advisory: classes are numbered from the node lines *)
          ignore (get_builder ());
          ignore (class_id lineno "class count" k)
      | [ "root"; r ] -> (
          let r = class_id lineno "root class" r in
          match !root with
          | Some (first_root, first_line) ->
              fail lineno "duplicate root %d (root %d already declared on line %d)" r
                first_root first_line
          | None ->
              root := Some (r, lineno);
              ignore (get_builder ()))
      | "node" :: cls :: cost :: op :: kids ->
          ignore (get_builder ());
          let cls = class_id lineno "e-class id" cls in
          let cost =
            match float_of_string_opt cost with
            | Some c -> c
            | None -> fail lineno "bad cost %S (expected a float)" cost
          in
          let kids = List.map (class_id lineno "child class") kids in
          List.iter
            (fun k -> if not (Hashtbl.mem child_refs k) then Hashtbl.add child_refs k lineno)
            kids;
          Hashtbl.replace node_count cls
            (1 + Option.value ~default:0 (Hashtbl.find_opt node_count cls));
          Vec.push nodes (cls, op, cost, kids)
      | keyword :: _ when List.mem keyword [ "classes"; "root" ] ->
          fail lineno "malformed %s line %S" keyword (String.trim line)
      | _ ->
          fail lineno "unrecognised line %S (expected egraph/classes/root/node)"
            (String.trim line)
    in
    List.iteri (fun i line -> parse_line (i + 1) line) lines;
    let nodes_in cls = Option.value ~default:0 (Hashtbl.find_opt node_count cls) in
    (* dangling children: used in some node's child list, never given an
       e-node — freeze would reject them too, but without the line *)
    let dangling =
      Hashtbl.fold (fun cls lineno acc -> if nodes_in cls = 0 then (cls, lineno) :: acc else acc)
        child_refs []
    in
    (match List.sort compare dangling with
    | (cls, lineno) :: _ ->
        fail lineno "class %d is referenced as a child but has no e-nodes" cls
    | [] -> ());
    match !root with
    | None -> failwith "Egraph.Serial.of_string: missing root declaration"
    | Some (r, lineno) ->
        if nodes_in r = 0 then fail lineno "root class %d has no e-nodes" r;
        (* number only the classes holding an e-node, in id order: every
           class reachable from the root holds one (checked above), and
           freeze renumbers reachable classes in id order, so sparse ids
           cost nothing and dense ones give the same graph *)
        let b = get_builder () in
        let dense = Hashtbl.create (Hashtbl.length node_count) in
        Hashtbl.fold (fun cls _ acc -> cls :: acc) node_count []
        |> List.sort Int.compare
        |> List.iter (fun cls -> Hashtbl.add dense cls (Builder.add_class b));
        let id = Hashtbl.find dense in
        Vec.iter
          (fun (cls, op, cost, kids) ->
            ignore (Builder.add_node b ~cls:(id cls) ~op ~cost ~children:(List.map id kids)))
          nodes;
        Builder.freeze b ~root:(id r)

  let write_file path g =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

  let read_file path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        of_string (really_input_string ic len))
end
