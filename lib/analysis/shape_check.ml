module D = Diagnostic

let check (ir : Ad.Ir.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  for i = 0 to Array.length ir - 1 do
    let nd = ir.(i) in
    let name = Op.name nd.Ad.Ir.op in
    let here = D.Tape_node i in
    let provenance = Printf.sprintf ", built in %s" nd.context in
    let report ~code detail =
      add (D.error ~code here "`%s` at node %d: %s%s" name i detail provenance)
    in
    let recorded = nd.shape in
    let bad_ids = List.filter (fun a -> a < 0 || a >= i) (Array.to_list nd.args) in
    List.iter
      (fun a ->
        report ~code:"SC008"
          (Printf.sprintf "operand id %d out of range (expected 0..%d)" a (i - 1)))
      bad_ids;
    let arity = Op.arity nd.op in
    if Array.length nd.args <> arity then
      report ~code:"SC008"
        (Printf.sprintf "%d operands, expected %d" (Array.length nd.args) arity);
    (* a node that cannot be checked, or breaks its op's shape rule, is
       reported once; later nodes see the shape it actually recorded *)
    if bad_ids = [] && Array.length nd.args = arity then
      match Op.shape nd.op (Array.map (fun a -> ir.(a).Ad.Ir.shape) nd.args) with
      | Ok (Some inferred) when inferred <> recorded ->
          add
            (D.warning ~code:"SC007" here
               "`%s` at node %d: recorded shape %s differs from inferred %s%s" name i
               (Op.shape_to_string recorded) (Op.shape_to_string inferred) provenance)
      | Ok _ -> ()
      | Error es -> List.iter (fun (code, detail) -> report ~code detail) es
  done;
  D.sort !ds
