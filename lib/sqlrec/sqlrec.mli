(** A [WITH RECURSIVE] evaluator over {!Sqldb} tables — the SQL:1999
    side of the paper's Section 2 example and Section 6 discussion.

    Supported SQL subset:

    {v
    WITH RECURSIVE name(col, …) AS (
        SELECT … FROM … [WHERE …]      -- seed
      UNION ALL
        SELECT … FROM … [WHERE …]      -- body
    )
    SELECT [DISTINCT] cols FROM tables [WHERE …] ;
    v}

    where selects use [FROM t [alias], …] and conjunctive [WHERE]
    comparisons ([=], [<>], [<], [<=], [>], [>=]) between column
    references or against literals. Equality and inequality compare any
    two values; the ordering operators require both operands to be of
    the same kind (two ints or two strings) and raise {!Error}
    otherwise.

    The engine implements both Naïve and Delta (semi-naïve) iteration
    for the recursive table, plus the standard's {e linearity} check:
    SQL:1999 requires the recursive table to be referenced at most once
    in the body's FROM clause (Section 6 — "rigid syntactical
    restrictions … that make Delta applicable"). *)

exception Error of string

type colref = { tbl : string option; col : string }

type operand = Col of colref | Lit of Sqldb.value

(** WHERE comparison operators: [=], [<>], [<], [<=], [>], [>=]. *)
type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type select = {
  distinct : bool;
  columns : operand list;  (** empty means [*] *)
  from : (string * string) list;  (** (table, alias) *)
  where : (operand * cmp * operand) list;  (** conjunctive comparisons *)
}

type query = {
  rec_name : string;
  rec_columns : string list;
  seed : select;
  body : select;
  final : select;
}

val parse : string -> query

(** Does the body satisfy SQL:1999's linearity restriction (at most one
    reference to the recursive table)? *)
val is_linear : query -> bool

type algorithm = Naive | Delta

type run = {
  result : Sqldb.table;
  iterations : int;
  rows_fed : int;  (** total rows fed into the body across iterations *)
}

(** Evaluate. Raises {!Error} for nonlinear queries when
    [enforce_linearity] (default [true]) — matching the standard — and
    for unknown tables/columns. The recursion runs on the shared
    fixpoint kernel ({!Fixq_lang.Fixpoint.run}), starting at the seed
    table: every round is recorded in [stats] (a fresh one by default),
    and more than [max_iterations] rounds (default 1,000,000) raise
    {!Fixq_lang.Fixpoint.Diverged}. *)
val run :
  ?enforce_linearity:bool ->
  ?max_iterations:int ->
  ?stats:Fixq_lang.Stats.t ->
  algorithm:algorithm ->
  Sqldb.t ->
  query ->
  run

(** Evaluate a plain (non-recursive) select, for tests. *)
val run_select : Sqldb.t -> select -> Sqldb.table

(** Parse and evaluate a plain select statement (no WITH clause). *)
val parse_select : string -> select
