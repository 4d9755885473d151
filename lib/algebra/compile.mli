(** Loop-lifting compiler: XQuery recursion bodies → algebra plans.

    Following the Relational XQuery architecture (Section 4), the unit
    of algebraic compilation here is the recursion body [e_rec] of an
    IFP: the compiler translates the LiXQuery constructs it contains
    into the Table-1 dialect over [iter|item] tables, with the recursion
    variable [$x] becoming a {!Plan.Fix_ref} leaf. Compilation is
    {e set-oriented}: the [pos] bookkeeping of full loop-lifting is
    omitted, which the paper itself licenses for fixpoint work (the IFP
    semantics and the distributivity notion are insensitive to
    duplicates and order — Section 4.1 "the compiler may … omit those
    parts of the plan that realize the proper XQuery order semantics").

    Plan templates: [for]-iteration maps and XPath steps are wrapped in
    {!Plan.Template} nodes ("loop", "step"), so the ∪ push-up can cross
    them in one big step (Figure 7(b)).

    Constructs outside the supported subset (node constructors,
    positional predicates, [position()]/[last()], recursive function
    calls, dynamic [doc()] URIs, ranges) raise {!Unsupported}; the
    hybrid engine then falls back to interpreted evaluation. *)

exception Unsupported of string

type compiled = {
  fix_id : int;  (** the recursion input *)
  body : Plan.t;
  binding_refs : (string * int) list;
      (** rebindable leaves for the body's other free variables (and
          ["."] for the context item): the same compiled plan serves
          every evaluation of the site — bind them via
          {!Plan_eval.run_fix} *)
}

(** [body ~functions ~recursion_var ~bindings e_rec] compiles a
    recursion body. [bindings] names the variables in scope (include
    ["."] when a context item exists); each becomes a {!Plan.Fix_ref}
    leaf reported in [binding_refs]. *)
val body :
  functions:(string, Fixq_lang.Ast.fundef) Hashtbl.t ->
  recursion_var:string ->
  ?bindings:string list ->
  Fixq_lang.Ast.expr ->
  compiled

(** Compile an arbitrary closed expression (no recursion variable) for
    testing the compiler against the interpreter; same restrictions. *)
val expr :
  functions:(string, Fixq_lang.Ast.fundef) Hashtbl.t ->
  ?bindings:(string * Fixq_xdm.Item.seq) list ->
  ?context:Fixq_xdm.Item.t ->
  Fixq_lang.Ast.expr ->
  Plan.t

(** Turn an item sequence into a single-iteration [iter|item] literal
    table (iter = 1), e.g. to seed µ/µ∆. *)
val seed_table : Fixq_xdm.Item.seq -> Plan.t

(** The same encoding as a relation, for binding [Fix_ref] leaves at
    run time. *)
val items_relation : Fixq_xdm.Item.seq -> Relation.t

(** Read an [iter|item] relation back as an item sequence in document
    order (iter must be the single seed iteration). *)
val result_items : Relation.t -> Fixq_xdm.Item.seq
