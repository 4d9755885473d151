(** The prepared-query layer: everything about a query that does not
    depend on {e when} it runs, computed once and cached.

    Preparing a query runs the text-level part of the paper's pipeline
    eagerly — parse (with source spans), static check, the full
    analyzer pass ({!Fixq_analysis.Analyze}: lint rules, distributivity
    blame, divergence classification) — and pins the interpreter's
    fixpoint algorithm: Delta when the syntactic check (Figure 5)
    proves distributivity, Naïve otherwise. That is all an interpreter
    run needs.

    The rest is computed on first use and memoized in the entry:
    {!compiled} captures the first IFP body's Table-1 algebra plan once
    (an evaluation of the program prefix up to that site), runs the
    algebraic ∪ push-up (Section 4.1) on it and renders the SQL:1999
    query from the same plan; {!cost} adds the synopsis-driven cost
    estimate, memoized per store generation. Only algebra, sql and
    [auto] runs, admission under a cost envelope, and the
    [check]/[plan]/[explain]/[prepare] ops force them. Memos are safe to
    force from several threads at once: one computes, the others wait
    for its value. Repeat runs of the same query text skip all of it
    (an LRU cache in the server keys prepared queries by source text).

    For programs with more than one IFP the pinned modes degrade to
    [Auto]: the first site's verdict must not be forced onto the
    others, and [Auto] re-decides per site exactly as an unprepared run
    would. *)

(** A value computed on first use, at most once. *)
type 'a memo

(** The backend-specific part: what only the algebra and SQL engines,
    the cost model and the inspection ops read. *)
type compiled = {
  plan : (int * Fixq.Algebra_ir.Plan.t) option;
      (** fix-ref id and compiled plan of the first IFP body *)
  push : Fixq_algebra.Push.outcome option;
      (** full ∪ push-up outcome, including the blocking operator *)
  algebraic : bool option;
      (** ∪ push-up verdict; [None] when the body is outside the
          compilable subset or there is no IFP *)
  sql : (Fixq_algebra.Render_sql.rendered, string) result option;
      (** SQL:1999 rendering of [plan] ([None] when there is no IFP or
          no compilable plan) *)
  algebra_mode : Fixq.mode;  (** pinned algorithm for the algebra engine *)
}

type t = {
  source : string;
  hash : string;  (** hex digest of [source] — the result-cache key *)
  program : Fixq.Lang.Ast.program;
  spans : Fixq.Lang.Parser.Spans.t;
      (** node → source position side-table from parsing *)
  warnings : string list;  (** static warnings; static errors reject *)
  analysis : Fixq_analysis.Analyze.t;
      (** located diagnostics and per-IFP reports *)
  ifp_count : int;
  syntactic : bool;  (** Figure 5 verdict for the first IFP ([false] if none) *)
  interp_mode : Fixq.mode;  (** pinned algorithm for the interpreter *)
  stratified : bool;  (** checks ran with the Section-6 refinement *)
  generation : int;  (** store generation the estimate memo belongs to *)
  prepare_ms : float;  (** time spent in the eager text-level part *)
  store : Store.t;  (** documents the memoized parts read *)
  max_iterations : int;  (** bound on the plan capture's evaluation *)
  compiled_memo : compiled memo;
  estimate_memo : Fixq_cost.Estimate.t memo;
  sites : Fixq.sites;
      (** the algebra engine's compiled IFP sites of [program], filled
          by the first algebra run and shared by every later one *)
}

(** Parse or static errors. [message] is the legacy one-line rendering;
    [diagnostics] the located, coded findings behind it. *)
exception
  Rejected of {
    message : string;
    diagnostics : Fixq_analysis.Diag.t list;
  }

(** [prepare ~store ~stratified ~max_iterations src] runs the text-level
    part. Nothing here reads a document; [store] and [max_iterations]
    are kept for the memoized parts (the plan capture evaluates the
    surrounding program up to the first IFP site, bounded by
    [max_iterations], so a divergent query terminates with the plan
    simply not captured).

    @raise Rejected on parse errors or static errors. *)
val prepare :
  store:Store.t -> stratified:bool -> max_iterations:int -> string -> t

(** [refresh ~store t] — [t] unchanged when the store generation still
    matches [t]'s; otherwise a copy with an empty estimate memo, so the
    next {!cost} re-runs the estimate against the current synopses.
    Admission or engine choice acting on a pre-[patch-doc] estimate
    would mis-gate grown documents. The text-level parts, the compiled
    memo and the site table (generation-independent) are shared with
    [t]; the copy keeps no reference to [t] itself. *)
val refresh : store:Store.t -> t -> t

(** The compiled part, captured on first call (one evaluation of the
    program prefix for the whole life of the entry and its refreshed
    copies). *)
val compiled : t -> compiled

(** The full cost & cardinality estimate: per-operator cardinalities,
    certified round bound, per-engine costs and the cheapest-engine
    verdict ([--engine auto]). Forces {!compiled} and the estimate. *)
val cost : t -> Fixq_cost.Estimate.t

(** The cost model's prediction for running on one engine — the
    admission figure. [`Interp] needs only the estimate, never the
    compiled part. *)
val predicted_cost : t -> [ `Interp | `Algebra | `Sql ] -> float

(** Certified round bound of the first IFP (the estimate only). *)
val rounds_bound : t -> int option

(** All located diagnostics for the query, sorted by position: the
    analyzer's, plus the FQ031 push-block mapping (which needs the
    compiled plan's verdict and so is assembled here), plus the cost
    analyzer's. *)
val diagnostics : t -> Fixq_analysis.Diag.t list

(** Divergence class of the first IFP ([None] when the query has no
    fixed point). *)
val divergence : t -> Fixq_analysis.Analyze.divergence option

(** [accumulate by] kind of the first IFP ([None] for a plain
    fixpoint or a query without one). *)
val semiring : t -> Fixq_semiring.Semiring.kind option

(** The engine the cost model picked as cheapest — what [--engine auto]
    resolves to. *)
val chosen_engine : t -> [ `Interp | `Algebra | `Sql ]

(** The mode a request for the given engine kind should run with:
    [`Interp] → [interp_mode], [`Algebra]/[`Sql] → [algebra_mode] (the
    Sql engine runs the same compiled plan), [`Auto] → the mode of
    {!chosen_engine}. Only [`Interp] leaves the memos untouched. *)
val mode_for : t -> [ `Interp | `Algebra | `Sql | `Auto ] -> Fixq.mode

(** Process-wide counts of plan captures and cost estimates run so far
    (the server's [stats] reports them). *)
val plan_captures : unit -> int

val cost_estimates : unit -> int

val hash_source : string -> string
