(** The relational algebra dialect of Table 1, as a plan DAG.

    Non-textbook operators ([step], [id-join], the fixpoint operators µ
    and µ∆) are first-class here, exactly as the Pathfinder compiler
    emits them; ε/τ node constructors appear as {!Construct} (the
    compiler never emits them inside recursion bodies — their presence
    voids distributivity).

    {!Fix_ref} marks the recursion input of a fixpoint body: µ/µ∆
    rebind it on every iteration, and the algebraic distributivity
    check of Section 4.1 starts its ∪ push-up there. *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

(** Primitive row functions (the ⊚ operator family). *)
type prim =
  | P_cmp of cmp  (** value comparison of two columns *)
  | P_arith of Fixq_lang.Ast.arith
  | P_and
  | P_or
  | P_not
  | P_data  (** node → untyped atomic (string value) *)
  | P_name  (** node → element/attribute name *)
  | P_root  (** node → root of its tree *)
  | P_ebv  (** item → effective boolean value (itemwise) *)
  | P_const of Value.t

type agg = A_count | A_sum | A_max | A_min

type join_pred = {
  equi : (string * string) list;  (** (left column, right column) *)
  theta : (string * cmp * string) list;  (** extra comparisons *)
}

type agg_spec = {
  agg_result : string;
  agg_input : string option;  (** [None] for count *)
  agg_partition : string option;
}

type fun_spec = { fun_result : string; fun_args : string list }

type num_spec = {
  num_result : string;
  num_order : string list;
  num_partition : string option;
}

type t =
  | Lit_table of string list * Value.t array list
  | Doc of string  (** document node of a registered URI; schema [item] (one row) *)
  | Fix_ref of int * string list
  | Project of (string * string) list * t  (** (new, old) *)
  | Select of string * t  (** keep rows whose boolean column is true *)
  | Join of join_pred * t * t
  | Cross of t * t
  | Distinct of t
  | Union of t * t
  | Difference of t * t
  | Aggr of agg * agg_spec * t
  | Fun of prim * fun_spec * t
  | Tag of string * t  (** # — unique row tags *)
  | Row_num of num_spec * t  (** ̺ *)
  | Step of Fixq_xdm.Axis.t * Fixq_xdm.Axis.test * string * t
      (** XPath step join over the named node column (staircase join);
          the step replaces that column, other columns are preserved,
          duplicates eliminated *)
  | Id_join of t * t
      (** [fn:id]: ctx plan × arg plan — the arg's [iter|item] strings
          are matched against the ID index of the documents of the ctx
          nodes (the relational id|ref table join of Figure 9(a));
          output is the ctx schema with [item] holding matched
          elements *)
  | Construct of string * t  (** ε, τ, … — opaque here *)
  | Mu of fix
  | Mu_delta of fix
  | Template of string * t
      (** compiler-emitted plan template; the ∪ push-up may cross it in
          one big step (Figure 7(b)) *)
  | Iterate of iterate
      (** the loop-lifting iteration template ([for]-loops, general path
          right-hand sides, filters): [it_result] is the complete
          expanded plan (shared DAG); [it_source] and [it_map] expose
          the iterated input and the # map node so the ∪ push-up can
          take the big step of Figure 7(b) with the linearity check of
          rules FOR1/FOR2 *)

and fix = { fix_id : int; seed : t; body : t }

and iterate = {
  it_name : string;  (** "loop" or "filter" *)
  it_source : t;
  it_map : t;  (** the physical # (Tag) node binding iterations *)
  it_result : t;
}

(** Operator name as in Table 1 (π, σ, ⋈, ×, δ, ∪, \, count, ⊚, #, ̺,
    step, ε, µ, µ∆). *)
val op_symbol : t -> string

(** The Push? column of Table 1 for the operator at the root of the
    plan: may a ∪ arriving at (one of) its input(s) be pushed above
    it? *)
val push_through : t -> bool

(** Direct children of the root operator. *)
val children : t -> t list

(** Output schema of a plan. Raises [Invalid_argument] when the plan is
    ill-formed (unknown columns, schema mismatches). *)
val schema_of : t -> string list

(** One level of {!schema_of}: the root operator's output schema,
    computed from its children's schemas as the given function reports
    them — for callers that already hold those schemas. *)
val schema_with : (t -> string list) -> t -> string list

(** Fresh fixpoint-reference ids for compilers/tests. *)
val fresh_fix_id : unit -> int
