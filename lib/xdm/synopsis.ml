type entry = {
  mutable count : int;
  mutable texts : int;
  mutable comments : int;
  mutable max_children : int;
      (* sound upper bound: inserts raise it, deletes leave it *)
  kids : (string, unit) Hashtbl.t;
  attrs : (string, int) Hashtbl.t;
}

type t = {
  paths : (string, entry) Hashtbl.t;
  name_totals : (string, int) Hashtbl.t;
  attr_totals : (string, int) Hashtbl.t;
  mutable total_nodes : int;
  mutable total_elements : int;
  mutable root_key : string;
}

let root_key t = t.root_key
let child_key key name = if key = "" then name else key ^ "/" ^ name

let fresh_entry () =
  { count = 0; texts = 0; comments = 0; max_children = 0;
    kids = Hashtbl.create 4; attrs = Hashtbl.create 4 }

let entry t key =
  match Hashtbl.find_opt t.paths key with
  | Some e -> e
  | None ->
    let e = fresh_entry () in
    Hashtbl.replace t.paths key e;
    e

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let create () =
  { paths = Hashtbl.create 64; name_totals = Hashtbl.create 16;
    attr_totals = Hashtbl.create 16; total_nodes = 0; total_elements = 0;
    root_key = "" }

(* Add ([sign = 1]) or remove ([sign = -1]) the subtree rooted at [n],
   whose own path key is [key]. Counts every node (attributes and text
   included); fan-out bounds only ever grow. *)
let rec record t ~sign key (n : Node.t) =
  match n.Node.kind with
  | Node.Element | Node.Document ->
    let e = entry t key in
    e.count <- e.count + sign;
    t.total_nodes <- t.total_nodes + sign;
    if n.Node.kind = Node.Element then begin
      t.total_elements <- t.total_elements + sign;
      bump t.name_totals (Node.name n) sign
    end;
    Array.iter
      (fun (a : Node.t) ->
        let an = Node.name a in
        bump e.attrs an sign;
        bump t.attr_totals an sign;
        t.total_nodes <- t.total_nodes + sign)
      n.Node.attributes;
    let elt_kids = ref 0 in
    Array.iter
      (fun (c : Node.t) ->
        match c.Node.kind with
        | Node.Element ->
          incr elt_kids;
          let cn = Node.name c in
          if sign > 0 then Hashtbl.replace e.kids cn ();
          record t ~sign (child_key key cn) c
        | Node.Text ->
          e.texts <- e.texts + sign;
          t.total_nodes <- t.total_nodes + sign
        | Node.Comment | Node.Pi ->
          e.comments <- e.comments + sign;
          t.total_nodes <- t.total_nodes + sign
        | Node.Document | Node.Attribute -> ())
      n.Node.children;
    if sign > 0 && !elt_kids > e.max_children then e.max_children <- !elt_kids
  | Node.Attribute | Node.Text | Node.Comment | Node.Pi ->
    (* a bare non-element root: count it, no path structure *)
    t.total_nodes <- t.total_nodes + sign

let build root =
  let t = create () in
  t.root_key <-
    (match root.Node.kind with Node.Document -> "" | _ -> Node.name root);
  record t ~sign:1 t.root_key root;
  t

let copy t =
  { paths =
      (let h = Hashtbl.create (Hashtbl.length t.paths) in
       Hashtbl.iter
         (fun k e ->
           Hashtbl.replace h k
             { e with kids = Hashtbl.copy e.kids; attrs = Hashtbl.copy e.attrs })
         t.paths;
       h);
    name_totals = Hashtbl.copy t.name_totals;
    attr_totals = Hashtbl.copy t.attr_totals;
    total_nodes = t.total_nodes;
    total_elements = t.total_elements;
    root_key = t.root_key }

(* Path key of a node already attached to its tree: element names from
   the top down to (and including) [n]. *)
let key_of (n : Node.t) =
  let rec up acc (n : Node.t) =
    match n.Node.kind with
    | Node.Element -> (
      let acc = Node.name n :: acc in
      match n.Node.parent with None -> acc | Some p -> up acc p)
    | _ -> acc
  in
  String.concat "/" (up [] n)

let parent_key (n : Node.t) =
  match n.Node.parent with None -> "" | Some p -> key_of p

(* After an insert, the edit parent's single-node fan-out may exceed
   the recorded bound; re-probe that one node. *)
let refresh_fanout t (parent : Node.t option) =
  match parent with
  | None -> ()
  | Some p ->
    let key = match p.Node.kind with Node.Document -> "" | _ -> key_of p in
    let e = entry t key in
    let kids =
      Array.fold_left
        (fun acc (c : Node.t) ->
          if c.Node.kind = Node.Element then acc + 1 else acc)
        0 p.Node.children
    in
    if kids > e.max_children then e.max_children <- kids

let patched t ~old_root ~op ~(delta : Patch.delta) =
  let t = copy t in
  let target = Patch.resolve old_root (Patch.path_of_op op) in
  (match op with
  | Patch.Insert _ -> ()
  | Patch.Delete _ | Patch.Replace _ | Patch.Set_text _ ->
    record t ~sign:(-1) (key_of target) target);
  (match op with
  | Patch.Set_text _ -> (
    (* the element survives with rewritten content — re-add its (now
       single-text-child) subtree from the new tree *)
    match Hashtbl.find_opt delta.Patch.remap target.Node.id with
    | Some fresh -> record t ~sign:1 (key_of fresh) fresh
    | None -> ())
  | Patch.Insert _ | Patch.Delete _ | Patch.Replace _ ->
    List.iter
      (fun (inserted : Node.t) ->
        let parent = parent_key inserted in
        (* the edit parent gains a child name: [child_names] must stay a
           sound over-approximation *)
        if inserted.Node.kind = Node.Element then
          Hashtbl.replace (entry t parent).kids (Node.name inserted) ();
        record t ~sign:1 (child_key parent (Node.name inserted)) inserted)
      delta.Patch.inserted);
  refresh_fanout t delta.Patch.edit_parent;
  t

let total_nodes t = t.total_nodes
let total_elements t = t.total_elements

let path_count t key =
  match Hashtbl.find_opt t.paths key with Some e -> e.count | None -> 0

let child_names t key =
  match Hashtbl.find_opt t.paths key with
  | None -> []
  | Some e ->
    Hashtbl.fold (fun k () acc -> k :: acc) e.kids [] |> List.sort compare

let fanout t key =
  match Hashtbl.find_opt t.paths key with
  | Some e -> e.max_children
  | None -> 0

let attr_count t key name =
  match Hashtbl.find_opt t.paths key with
  | None -> 0
  | Some e -> Option.value ~default:0 (Hashtbl.find_opt e.attrs name)

let attr_names t key =
  match Hashtbl.find_opt t.paths key with
  | None -> []
  | Some e ->
    Hashtbl.fold (fun k n acc -> if n > 0 then k :: acc else acc) e.attrs []
    |> List.sort compare

let text_count t key =
  match Hashtbl.find_opt t.paths key with Some e -> e.texts | None -> 0

let name_total t name =
  Option.value ~default:0 (Hashtbl.find_opt t.name_totals name)

let attr_total t name =
  Option.value ~default:0 (Hashtbl.find_opt t.attr_totals name)

let paths_with_prefix t key =
  let prefix = if key = "" then "" else key ^ "/" in
  let plen = String.length prefix in
  Hashtbl.fold
    (fun k (e : entry) acc ->
      if
        k <> "" && k <> key
        && String.length k >= plen
        && String.sub k 0 plen = prefix
      then (k, e.count) :: acc
      else acc)
    t.paths []
  |> List.sort compare

let fold_paths f t init =
  Hashtbl.fold (fun k (e : entry) acc -> f k e.count acc) t.paths init

let equal_counts a b =
  let norm t =
    let rows = ref [] in
    Hashtbl.iter
      (fun k (e : entry) ->
        let attrs =
          Hashtbl.fold (fun n c acc -> if c <> 0 then (n, c) :: acc else acc)
            e.attrs []
          |> List.sort compare
        in
        if e.count <> 0 || e.texts <> 0 || e.comments <> 0 || attrs <> [] then
          rows := (k, e.count, e.texts, e.comments, attrs) :: !rows)
      t.paths;
    List.sort compare !rows
  in
  let totals t =
    Hashtbl.fold (fun k c acc -> if c <> 0 then (k, c) :: acc else acc)
      t.name_totals []
    |> List.sort compare
  in
  norm a = norm b && totals a = totals b
  && a.total_nodes = b.total_nodes
  && a.total_elements = b.total_elements

let pp fmt t =
  Format.fprintf fmt "@[<v>%d nodes, %d elements@," t.total_nodes
    t.total_elements;
  let rows =
    Hashtbl.fold (fun k (e : entry) acc -> (k, e) :: acc) t.paths []
    |> List.sort compare
  in
  List.iter
    (fun (k, (e : entry)) ->
      Format.fprintf fmt "%-40s %6d  (fan<=%d, text %d)@,"
        (if k = "" then "(document)" else k)
        e.count e.max_children e.texts)
    rows;
  Format.fprintf fmt "@]"
