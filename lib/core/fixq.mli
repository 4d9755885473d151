(** [fixq] — an inflationary fixed point operator for XQuery.

    This is the public entry point of the reproduction of Afanasiev,
    Grust, Marx, Rittinger, Teubner: {e An Inflationary Fixed Point
    Operator in XQuery} (ICDE 2008). It runs queries of the extended
    XQuery subset (including [with $x seeded by … recurse …]) on two
    engines:

    - {!Interpreter}: a conventional tree-walking processor (the Saxon
      stand-in). Its [Auto] strategy applies the {e syntactic}
      distributivity check (Figure 5) to trade Naïve for Delta.
    - {!Algebra}: the Relational-XQuery hybrid (the MonetDB/XQuery
      stand-in). Each IFP body is compiled to a Table-1 algebra plan;
      the {e algebraic} ∪ push-up (Section 4.1) decides between the µ
      and µ∆ fixpoint operators; evaluation runs over [iter|item]
      relations with staircase-join steps. Bodies outside the
      compilable subset fall back to the interpreter.
    - {!Sql}: the SQL:1999 comparison engine (Sections 2 and 6). IFP
      plans that render to a linear [WITH RECURSIVE] query (see
      {!Algebra_ir.Render_sql}) run on the {!Fixq_sqlrec} evaluator
      over materialized document relations; everything else falls back
      to the interpreter, so results stay byte-identical.

    Re-exported substrate libraries: {!Xdm} (data model), {!Lang}
    (language), {!Algebra_ir} (plans), {!Store} (pre/size/level
    encoding). *)

module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Algebra_ir = Fixq_algebra
module Store = Fixq_store

(** Fixpoint algorithm selection for either engine. *)
type mode =
  | Naive  (** always Figure 3(a) / µ *)
  | Delta  (** always Figure 3(b) / µ∆ — unsound if non-distributive *)
  | Auto  (** Delta when the engine's distributivity check succeeds *)

type engine = Interpreter of mode | Algebra of mode | Sql of mode

(** Outcome of a query run, with the instrumentation that Table 2
    reports. *)
type report = {
  result : Xdm.Item.seq;
  engine : engine;
  used_delta : bool option;  (** [None] if the query had no IFP *)
  nodes_fed : int;  (** total nodes fed into recursion bodies *)
  depth : int;  (** recursion depth (IFP iterations) *)
  wall_ms : float;
  fallbacks : string list;
      (** algebra-engine IFP sites that fell back to the interpreter,
          with reasons *)
  semiring : string option;
      (** the [accumulate by] kind of the last annotated IFP, if any *)
  annotations : (string * string) list;
      (** [(serialized node, annotation)] pairs of the last annotated
          IFP, in document order — how [run]/[client] print
          [node @ annotation] *)
}

exception Error of string

(** Compile-and-run a query string. [max_iterations] bounds every IFP
    on every engine (default 1,000,000); exceeding it raises {!Error}
    ["IFP diverged after N iterations"] — relevant for bodies with node
    constructors, whose fixed points may be undefined (Definition 2.1).
    [stratified] (default [false]) extends both [Auto] distributivity
    checks with the Section-6 stratified-difference rule ([$x except R]
    with fixed [R]). [deadline] (absolute [Unix.gettimeofday] seconds)
    aborts the run with {!Error} once the wall clock passes it;
    enforcement is cooperative, checked once per fixpoint round on
    every engine — the budget knob of the long-running [fixq serve]
    front end. [round_hook] is called once per fixpoint round (same
    cooperative site as [deadline], before the deadline check) — the
    serving layer's resource governor uses it to abort runs whose heap
    growth exceeds their memory budget; any exception it raises
    propagates out of the run unconverted. [max_call_depth] bounds
    user-function recursion depth (default 100,000; exceeding it raises
    {!Error}). *)
val run :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  ?stratified:bool ->
  ?deadline:float ->
  ?round_hook:(unit -> unit) ->
  ?max_call_depth:int ->
  engine:engine ->
  string ->
  report

(** The algebra engine's compiled IFP sites of one program: per site
    (body expression, names in scope, stratified flag), the optimized
    plan, its ∪ push-up verdict and its lowered slot program — or the
    reason the body is outside the compilable subset. Filled on first
    use; thread-safe; holds no document data. A table belongs to one
    program: its sites are keyed by the program's own body
    expressions. *)
type sites

val create_sites : unit -> sites

(** Process-wide count of algebra site compilations so far. *)
val algebra_compiles : unit -> int

(** Run an already-parsed program. [sites] (algebra engine only)
    supplies the compiled-site table to use and fill, so repeated runs
    of one program compile each IFP site once; by default every run
    compiles into a fresh table. *)
val run_program :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  ?stratified:bool ->
  ?deadline:float ->
  ?round_hook:(unit -> unit) ->
  ?max_call_depth:int ->
  ?sites:sites ->
  engine:engine ->
  Lang.Ast.program ->
  report

(** The recursion variable and body of the first IFP in the program
    (document order, main expression before function bodies). *)
val first_ifp : Lang.Ast.program -> (string * Lang.Ast.expr) option

(** Conservative syntactic check that the expression surely evaluates
    to document-tree nodes only — never atoms or freshly constructed
    nodes. [env] lists the variables known to be node-only (the IFP
    recursion variable, for its body). The cluster scatter gate
    requires it: scattered result slices are united by portable node
    identity (document uri, preorder rank), which atoms and
    constructed nodes do not have — and a single process serializes
    such items in engine-production order, which slices cannot
    reproduce. *)
val node_only : env:string list -> Lang.Ast.expr -> bool

(** Number of [with … seeded by … recurse] sites in the whole program.
    The prepared-query layer pins a fixpoint algorithm at preparation
    time only for single-IFP programs; anything else keeps the per-site
    [Auto] decision. *)
val count_ifps : Lang.Ast.program -> int

(** The distinct literal [doc("uri")] references of the whole program
    (main expression, function bodies, global variable declarations),
    in first-occurrence order. Document-sharded routing keys on
    these. *)
val doc_uris : Lang.Ast.program -> string list

(** [partition_first_seed ~index ~count p] rewrites the {e first} IFP
    (same traversal order as {!first_ifp}) so its seed keeps only the
    [index]-th residue class modulo [count]:
    [seed\[(position() - 1) mod count = index\]]. When the IFP body is
    distributive, Theorem 3.2 makes evaluating the IFP once per slice
    and uniting the results equivalent to one evaluation of the whole
    seed — the soundness argument behind the cluster's scatter-gather
    (and the same licence that justifies Naïve→Delta). Raises {!Error}
    if the program has no IFP or the partition is malformed
    ([count < 1] or [index] outside [0 .. count-1]). *)
val partition_first_seed :
  index:int -> count:int -> Lang.Ast.program -> Lang.Ast.program

(** Both distributivity verdicts for the body of the {e first} IFP in
    the program: [(syntactic, algebraic)]. The algebraic verdict is
    [None] when the body is outside the compilable subset.
    [stratified] enables the Section-6 refinement in both checks.
    [plan] is an already captured {!plan_of_first_ifp} result; without
    it the plan is captured here. *)
val distributivity_verdicts :
  ?registry:Xdm.Doc_registry.t ->
  ?stratified:bool ->
  ?plan:(int * Algebra_ir.Plan.t) option ->
  Lang.Ast.program ->
  (bool * bool option) option

(** Compile the first IFP body of a program to its algebra plan (for
    plan inspection à la Figure 9). Returns the fix-ref id and plan.
    Free variables and context of the body are materialized by
    evaluating the surrounding program as far as needed — bounded by
    [max_iterations] so preparing a divergent query terminates. A
    dynamic error before the first IFP yields [None]; other exceptions
    ([Out_of_memory], [Stack_overflow]) propagate. *)
val plan_of_first_ifp :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  Lang.Ast.program ->
  (int * Algebra_ir.Plan.t) option

(** [sql_of_plan (fix_id, plan)] — the SQL:1999 rendering of an
    already captured {!plan_of_first_ifp} result, optimized first: the
    [WITH RECURSIVE] query the {!Sql} engine would run at that site, or
    the reason there is none. Rendering a captured plan instead of
    calling {!sql_of_first_ifp} saves a second evaluation of the
    program prefix. *)
val sql_of_plan :
  int * Algebra_ir.Plan.t ->
  (Algebra_ir.Render_sql.rendered, string) result

(** [sql_of_plan] of the first IFP's captured plan. [None] when no IFP
    body compiles at all. *)
val sql_of_first_ifp :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  Lang.Ast.program ->
  (Algebra_ir.Render_sql.rendered, string) result option
