(** The semiring accumulator behind [accumulate by]: an accumulator
    whose [absorb] merges incoming annotations with ⊕
    ({!Semiring.improve}) and returns only the entries whose annotation
    strictly improved — the next round's frontier. Per-round cost stays
    O(|out| + |∆|). The interpreter runs it as an instance of the
    fixpoint kernel ([Fixpoint.run]), feeding the body one frontier
    node at a time so each produced node's annotation extends its
    source's via ⊗. *)

module Item = Fixq_xdm.Item
module Node = Fixq_xdm.Node
module Atom = Fixq_xdm.Atom

type t = {
  kind : Semiring.kind;
  anns : (int, Semiring.ann) Hashtbl.t;  (* node id → current ⊕-total *)
  nodes : (int, Node.t) Hashtbl.t;
  mutable size : int;
}

let create kind =
  { kind; anns = Hashtbl.create 256; nodes = Hashtbl.create 256; size = 0 }

let size t = t.size

let node_of = function
  | Item.N n -> n
  | Item.A a ->
    Atom.type_error "accumulate: expected a sequence of nodes, got atom %s"
      (Atom.to_string a)

(* Merge one annotated node; return its refeed increment if the stored
   annotation strictly improved. *)
let merge t (n : Node.t) ann =
  match Hashtbl.find_opt t.anns n.Node.id with
  | None ->
    Hashtbl.replace t.anns n.Node.id ann;
    Hashtbl.replace t.nodes n.Node.id n;
    t.size <- t.size + 1;
    Some ann
  | Some old -> (
    match Semiring.improve t.kind ~old ~incoming:ann with
    | None -> None
    | Some (updated, increment) ->
      Hashtbl.replace t.anns n.Node.id updated;
      Some increment)

(* Absorb a round's annotated output. Returns the strictly improved
   entries sorted by node id (document order for stored trees), so the
   next round's frontier is deterministic. A node improved by several
   sources in the same round yields one entry whose increment is the ⊕
   of the individual increments — keeping an arbitrary one (e.g. an
   early improvement later superseded) would propagate a stale
   annotation downstream. *)
let absorb t entries =
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun ((n : Node.t), ann) ->
      match merge t n ann with
      | None -> ()
      | Some inc -> (
        match Hashtbl.find_opt fresh n.Node.id with
        | None -> Hashtbl.replace fresh n.Node.id (n, inc)
        | Some (_, prev) ->
          Hashtbl.replace fresh n.Node.id (n, Semiring.plus t.kind prev inc)))
    entries;
  Hashtbl.fold (fun _ e acc -> e :: acc) fresh []
  |> List.sort (fun ((a : Node.t), _) ((b : Node.t), _) ->
         compare a.Node.id b.Node.id)

let entries t =
  Hashtbl.fold (fun id n acc -> (n, Hashtbl.find t.anns id) :: acc) t.nodes []
  |> List.sort (fun ((a : Node.t), _) ((b : Node.t), _) ->
         compare a.Node.id b.Node.id)
