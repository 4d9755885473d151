(** Column-engine evaluation of algebra plans — the MonetDB/XQuery
    stand-in.

    XPath step joins run over the pre/size/level encoding through the
    staircase join ({!Fixq_store.Staircase}); µ and µ∆ implement Naïve
    and Delta at the algebra level, re-binding the plan's {!Plan.Fix_ref}
    leaf on each round and recording fed/produced tuple counts in a
    {!Fixq_lang.Stats.t}. Because [iter] is part of every tuple, a
    loop-lifted fixpoint iterates all outer iterations in one relational
    computation (one of the paper's selling points for the algebraic
    route). *)

exception Error of string

type t

val create :
  ?registry:Fixq_xdm.Doc_registry.t ->
  ?max_iterations:int ->
  stats:Fixq_lang.Stats.t ->
  unit ->
  t

val stats : t -> Fixq_lang.Stats.t

(** A plan lowered into an immutable slot program: every physical
    node of the plan DAG gets a dense slot, its resolved children, the
    set of [Fix_ref] ids below it, its interned step id and its static
    column positions. Lower once, evaluate many times — from any number
    of runs and threads. *)
type program

val lower : Plan.t -> program

(** Does a [Fix_ref] with this id occur anywhere in the program? *)
val mentions : program -> int -> bool

(** The slot memos of one program for one query run: persistent slots
    (subplans over documents only) and run slots (subplans over the
    externally bound refs). Not thread-safe: one memo per run. *)
type memo

val memo : program -> memo

(** Drop the run slots — the bound values changed. (Callers that re-run
    a program with physically the same binding values keep them, e.g. a
    query computing one fixpoint per person evaluates
    [$doc//open_auction] once, not once per person.) *)
val new_session : memo -> unit

(** [run_fix t m ~delta ~fix_id ~seed bindings] runs µ ([delta =
    false]) or µ∆ over the program as the body, with [Fix_ref fix_id]
    as the recursion input starting from [seed] and the other refs
    pre-bound by [bindings]. *)
val run_fix :
  t ->
  memo ->
  delta:bool ->
  fix_id:int ->
  seed:Relation.t ->
  (int * Relation.t) list ->
  Relation.t

(** Evaluate a closed plan (no unbound [Fix_ref]); lowers it first. *)
val run : t -> Plan.t -> Relation.t

(** Evaluate with fixpoint references pre-bound (tests drive a body plan
    manually this way); lowers the plan first. *)
val run_with : t -> (int * Relation.t) list -> Plan.t -> Relation.t

(**/**)

(** One per-operator profile entry: evaluations, output rows and
    self-time of operator [op] with memo lifetime ["V"] (volatile),
    ["R"] (run) or ["P"] (persistent). The V entries are what a
    fixpoint re-pays per round. *)
type profile_row = {
  op : string;
  lifetime : string;
  evals : int;
  rows : int;
  self_ms : float;
}

(** Record the per-operator profile (off by default: the clock reads
    and the profile keys are measurable on fixpoint-heavy workloads). *)
val profile_timing : bool ref

(** Profile entries recorded since the last {!reset_profile}, largest
    self-time first. *)
val profile_rows : unit -> profile_row list

val reset_profile : unit -> unit
