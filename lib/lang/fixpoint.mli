(** The fixpoint kernel: the two IFP evaluation algorithms of Figure 3
    as one loop, shared by every engine.

    {!run} owns everything the algorithms have in common — the
    [max_iterations] budget, the one {!Diverged} error, the per-round
    {!Stats.record_iteration} (and with it the chaos point and the
    governor's round hook), the termination test and the choice between
    Naïve's and Delta's input. An engine is an {e instance}: it supplies
    only how a round's output is absorbed into its own accumulated
    structure. The instances are node sets ({!on_nodes}: the
    interpreter, [accumulate by bool], IVM, the bench), the algebra
    engine's relation seen-set, the interpreter's semiring accumulator
    (Delta only), and the SQL:1999 evaluator's tables.

    Every round is recorded in the supplied {!Stats.t} (nodes fed,
    nodes produced, accumulated size), which yields the "Total # of
    Nodes Fed Back" and "Recursion Depth" columns of Table 2. *)

exception Diverged of int
(** Raised when the round count exceeds [max_iterations]; an IFP whose
    body invokes node constructors may be undefined (Definition 2.1). *)

(** Where the loop starts. [Apply (seed, |seed|)] first applies the
    body to the seed (Definition 2.1 and Figure 3: [res ← erec(eseed)]);
    that application is not counted against the budget.
    [Resume (frontier, |frontier|)] starts at a frontier the instance
    has already set up — Example 2.4's seed-in-result convention, and
    incremental maintenance re-entering Delta at an edit frontier. *)
type 'i start = Apply of 'i * int | Resume of 'i * int

val run :
  ?max_iterations:int ->
  ?whole:(unit -> 'i) ->
  stats:Stats.t ->
  body:('i -> 'o) ->
  absorb:('o -> 'i * int * int) ->
  size:(unit -> int) ->
  'i start ->
  int
(** [run ?whole ~stats ~body ~absorb ~size start] iterates until a
    round absorbs nothing new and returns the number of rounds after
    the start (the budgeted ones). [absorb out] folds one round's
    output into the instance's accumulator and returns
    [(fresh, |fresh|, |out|)]; [fresh] is the next Delta input. [size
    ()] is the accumulated result's size. With [whole] every round is
    fed [whole ()], the accumulated result (Naïve, Figure 3(a));
    without it, the previous round's [fresh] (Delta, Figure 3(b)) —
    sound exactly when the body is distributive (Theorem 3.2).
    [max_iterations] defaults to 1,000,000. *)

val on_nodes :
  ?max_iterations:int ->
  use_delta:bool ->
  stats:Stats.t ->
  body:(Fixq_xdm.Item.seq -> Fixq_xdm.Item.seq) ->
  Fixq_xdm.Accumulator.t ->
  Fixq_xdm.Item.seq start ->
  int
(** The node-set instance of {!run} over an {!Fixq_xdm.Accumulator},
    which may already hold nodes (a maintained result). Raises
    [Atom.Type_error] if the body yields an atom. *)

(** [include_seed] selects the iteration's starting point. The paper is
    not fully consistent here: Definition 2.1 and Figure 3 start from
    [res ← erec(eseed)] (the default, [false]), whereas the iteration
    table of Example 2.4 traces the algorithms from [res ← eseed]
    (i.e. the seed itself belongs to the result; pass [true] to
    reproduce that table). Both conventions agree on which payloads make
    Naïve and Delta coincide. *)

val naive :
  ?max_iterations:int ->
  ?include_seed:bool ->
  stats:Stats.t ->
  body:(Fixq_xdm.Item.seq -> Fixq_xdm.Item.seq) ->
  seed:Fixq_xdm.Item.seq ->
  unit ->
  Fixq_xdm.Item.seq

val delta :
  ?max_iterations:int ->
  ?include_seed:bool ->
  stats:Stats.t ->
  body:(Fixq_xdm.Item.seq -> Fixq_xdm.Item.seq) ->
  seed:Fixq_xdm.Item.seq ->
  unit ->
  Fixq_xdm.Item.seq
