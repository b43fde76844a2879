(** Abstract shape interpreter over the autodiff op-graph IR.

    Re-infers every node's (batch, width) shape from its operands with
    the op's own shape rule ({!Op.shape}) and reports mismatches with
    op provenance ("`mul` at node 412: (8,1024) vs (8,512), built in
    smoothe.forward") instead of the bare [Invalid_argument] a tensor
    kernel would throw. The IR is plain data, so the check runs without
    executing any kernel — a hand-built or recorded IR can be vetted
    before (or without) a forward pass.

    Codes (full table in DESIGN.md):
    - [SC001] error: pointwise binary operands disagree
    - [SC002] error: gather index out of the operand's width
    - [SC003] error: segmentation width disagrees with the operand
    - [SC004] error: linear/dot dimension mismatch
    - [SC005] error: [expm_trace] of a non-square matrix
    - [SC006] error: [matrix_of_entries] scatter target out of range
    - [SC007] warning: recorded shape differs from the inferred shape
      (op ran, but not with the semantics its shape rule states)
    - [SC008] error: operand id out of range, or an operand count
      other than the op's arity (malformed IR)
    - [SC010] error: row/column index out of the operand's shape

    Every node is checked against the shapes its operands recorded, so
    one defect yields one diagnostic, not a cascade. *)

val check : Ad.Ir.t -> Diagnostic.t list
