(** The built-in function library (the [fn:] namespace subset used by
    the paper's queries, plus general-purpose helpers).

    Built-ins receive already-evaluated argument sequences and a
    lightweight view of the dynamic context (context item / position /
    size and the document registry for [fn:doc] and [fn:id]). *)

type ctx = {
  context_item : Fixq_xdm.Item.t option;
  context_pos : int;
  context_size : int;
  registry : Fixq_xdm.Doc_registry.t;
}

exception Error of string

(** [call ctx name args] dispatches a built-in; [None] if [name] is not
    a built-in (the evaluator then looks for a user-defined function).
    Raises {!Error} on arity or type violations. *)
val call : ctx -> string -> Fixq_xdm.Item.seq list -> Fixq_xdm.Item.seq option

val is_builtin : string -> bool

(** [reads_context name arity]: does the built-in [name], called with
    [arity] arguments, read the context item, position or size? *)
val reads_context : string -> int -> bool

(** All built-in names (for documentation and tests). *)
val names : unit -> string list
