(** Static cost & cardinality analysis.

    An abstract interpreter over the AST propagates {e cardinality
    intervals} through axis steps, filters, unions and µ/µ∆ loops,
    reading per-document {!Fixq_xdm.Synopsis} summaries (DataGuide
    path counts) instead of the documents. The abstraction tracks the
    set of synopsis paths a node-valued expression can produce and a
    {e saturation} bit ("exactly all nodes at these paths"), which
    keeps common step chains ([doc(…)/a/b], [$doc//c]) {e exact}, not
    just bounded.

    Per query it yields: a per-operator estimate table (rendered by
    [fixq explain] and [fixq plan]), a certified upper bound on
    fixpoint rounds where derivable — an unannotated IFP only ever
    accumulates document nodes, so its rounds are bounded by the
    reachable-node count over the synopsis plus one — the FQ050–FQ054
    diagnostics, and a total cost estimate per engine from which the
    cheapest eligible engine is chosen ([--engine auto]).

    Everything here is an {e upper-bound} analysis: estimates are
    sound to use for admission control and round budgets, never for
    pruning results. *)

module Lang = Fixq_lang
module Xdm = Fixq_xdm

(** [{lo; hi}] with [hi = None] meaning unbounded. *)
type interval = { lo : int; hi : int option }

val exactly : int -> interval
val interval_string : interval -> string
(** ["7"] when exact, ["0..40"], ["0..∞"]. *)

(** One line of the annotated-plan table, preorder over the query. *)
type op_row = {
  op_loc : (int * int) option;  (** 1-based [line, col] *)
  op_depth : int;  (** nesting depth, for indentation *)
  op_desc : string;  (** operator rendering, e.g. ["step child::course"] *)
  op_card : interval;
  op_note : string option;  (** paths / emptiness / bound remarks *)
}

type engine_estimate = {
  eng_name : string;  (** ["interp"], ["algebra"], ["sql"] *)
  eng_cost : float;  (** abstract work units *)
  eng_native : bool;
      (** the first IFP runs natively on this engine (no interpreter
          fallback) *)
  eng_note : string;
}

type t = {
  rows : op_row list;
  result_card : interval;
  rounds_bound : int option;
      (** certified upper bound on fixpoint rounds of the first IFP;
          [None] when there is no IFP or no bound is derivable *)
  bound_reason : string;
  work : float;  (** engine-independent abstract work estimate *)
  engines : engine_estimate list;
  chosen : string;  (** cheapest engine: ["interp"|"algebra"|"sql"] *)
  choice_reason : string;
  diagnostics : Fixq_analysis.Diag.t list;
      (** FQ050 statically-empty step, FQ051 dead branch, FQ052
          statically-empty seed, FQ053 certified bound, FQ054
          uncertifiable bound *)
  docs : (string * bool) list;
      (** every [doc(…)] URI → whether a synopsis was available *)
  has_ifp : bool;  (** the program has a fixed point *)
  mat_nodes : float;
      (** document nodes the Sql engine would materialize *)
}

(** [analyze p] — run the abstract interpreter over [p]'s main
    expression (user functions are inlined to a fixed depth).
    [registry] supplies documents/synopses; URIs that resolve to
    nothing degrade to unbounded estimates. [compiled] /
    [sql_renderable] are the prepared-query verdicts for the first IFP
    ([Some true] = the engine runs it natively), [algebra_delta] /
    [interp_delta] the distributivity verdicts — together they shape
    the per-engine costs. *)
val analyze :
  ?registry:Xdm.Doc_registry.t ->
  ?spans:Lang.Parser.Spans.t ->
  ?compiled:bool option ->
  ?sql_renderable:bool option ->
  ?algebra_delta:bool ->
  ?interp_delta:bool ->
  Lang.Ast.program ->
  t

(** [with_verdicts t] — [t] with the per-engine costs and the choice
    re-derived from other probe verdicts (meaning and defaults as in
    {!analyze}). The abstract interpretation never reads the verdicts,
    so [with_verdicts ~compiled … (analyze p)] equals
    [analyze ~compiled … p]: a caller can run the walk before it has
    compiled anything. *)
val with_verdicts :
  ?compiled:bool option ->
  ?sql_renderable:bool option ->
  ?algebra_delta:bool ->
  ?interp_delta:bool ->
  t ->
  t

(** [of_program p] — {!analyze} with the probes wired from one capture
    of the first IFP's plan ({!Fixq.plan_of_first_ifp}): compiled or
    not, SQL-renderable or not, and both distributivity verdicts. A
    probe that raises counts as a negative verdict. *)
val of_program :
  ?registry:Xdm.Doc_registry.t ->
  ?spans:Lang.Parser.Spans.t ->
  Lang.Ast.program ->
  t

(** Deterministic human rendering of a report: work, result
    cardinality, round bound, per-engine costs (the chosen one starred)
    and the indented per-operator table. Shared by [fixq explain] and
    the server's [explain] op. *)
val to_text : t -> string

(** Per-operator cardinality intervals for a Table-1 plan, memoized
    over the shared DAG — the [fixq plan] annotation source. Coarser
    than the AST walk (no path tracking), but honest about document
    totals: caps come from the loaded synopses. *)
val plan_cards :
  ?registry:Xdm.Doc_registry.t ->
  Fixq_algebra.Plan.t ->
  Fixq_algebra.Plan.t -> interval
