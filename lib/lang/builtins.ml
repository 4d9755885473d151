module Item = Fixq_xdm.Item
module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Doc_registry = Fixq_xdm.Doc_registry

type ctx = {
  context_item : Item.t option;
  context_pos : int;
  context_size : int;
  registry : Doc_registry.t;
}

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let singleton_atom who s =
  match Item.atomize s with
  | [ a ] -> a
  | l -> err "%s: expected a single atomic value, got %d items" who
           (List.length l)

let opt_atom who s =
  match Item.atomize s with
  | [] -> None
  | [ a ] -> Some a
  | l -> err "%s: expected at most one item, got %d" who (List.length l)

let singleton_node who s =
  match s with
  | [ Item.N n ] -> n
  | _ -> err "%s: expected a single node" who

let opt_node who s =
  match s with
  | [] -> None
  | [ Item.N n ] -> Some n
  | _ -> err "%s: expected at most one node" who

let string_arg who s =
  match opt_atom who s with None -> "" | Some a -> Atom.to_string a

let bool_ seq = [ Item.A (Atom.Bool (Item.effective_boolean seq)) ]
let str s = [ Item.A (Atom.Str s) ]
let int_ n = [ Item.A (Atom.Int n) ]
let dbl f = [ Item.A (Atom.Dbl f) ]

let context_node ctx who =
  match ctx.context_item with
  | Some (Item.N n) -> n
  | Some (Item.A _) -> err "%s: the context item is not a node" who
  | None -> err "%s: no context item" who

let numeric_agg who fold init s =
  let atoms = Item.atomize s in
  match atoms with
  | [] -> []
  | _ ->
    let all_int =
      List.for_all (function Atom.Int _ -> true | _ -> false) atoms
    in
    let total =
      List.fold_left (fun acc a -> fold acc (Atom.to_number a)) init atoms
    in
    ignore who;
    if all_int && Float.is_integer total then int_ (int_of_float total)
    else dbl total

let minmax who better s =
  let atoms = Item.atomize s in
  match atoms with
  | [] -> []
  | first :: rest ->
    let best =
      List.fold_left
        (fun acc a -> if better (Atom.compare_value a acc) then a else acc)
        first rest
    in
    ignore who;
    [ Item.A best ]

(* fn:id — each string in the argument is a whitespace-separated list
   of ID tokens; matching elements are returned in document order. *)
let fn_id ctx args =
  let (idrefs, roots) =
    match args with
    | [ idrefs ] -> (
      (* The context node names the document; absent a context item
         (e.g. [id($x/…)] at the top of a recursion body) the documents
         of the argument's own nodes serve instead. *)
      match ctx.context_item with
      | Some (Item.N n) -> (idrefs, [ Node.root n ])
      | _ ->
        let roots =
          List.filter_map
            (function Item.N n -> Some (Node.root n) | Item.A _ -> None)
            idrefs
        in
        let roots = List.sort_uniq Node.compare_doc_order roots in
        if roots = [] && idrefs <> [] then
          err "id: no context item and no node argument"
        else (idrefs, roots))
    | [ idrefs; node ] -> (idrefs, [ Node.root (singleton_node "id" node) ])
    | _ -> err "id: expected 1 or 2 arguments"
  in
  let tokens =
    List.concat_map
      (fun a ->
        String.split_on_char ' ' (Atom.to_string a)
        |> List.concat_map (String.split_on_char '\n')
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> ""))
      (Item.atomize idrefs)
  in
  let found =
    List.concat_map
      (fun root -> List.filter_map (Node.lookup_id root) tokens)
      roots
  in
  Item.ddo (List.map Item.node found)

(* fn:idref — attribute nodes of DTD type IDREF/IDREFS that refer to
   any of the given ID values. *)
let fn_idref ctx args =
  let (ids, roots) =
    match args with
    | [ ids ] -> (
      match ctx.context_item with
      | Some (Item.N n) -> (ids, [ Node.root n ])
      | _ ->
        let roots =
          List.filter_map
            (function Item.N n -> Some (Node.root n) | Item.A _ -> None)
            ids
          |> List.sort_uniq Node.compare_doc_order
        in
        if roots = [] && ids <> [] then
          err "idref: no context item and no node argument"
        else (ids, roots))
    | [ ids; node ] -> (ids, [ Node.root (singleton_node "idref" node) ])
    | _ -> err "idref: expected 1 or 2 arguments"
  in
  let values = List.map Atom.to_string (Item.atomize ids) in
  let found =
    List.concat_map
      (fun root -> List.concat_map (Node.lookup_idref root) values)
      roots
  in
  Item.ddo (List.map Item.node found)

let fn_doc ctx args =
  match args with
  | [ uri ] -> (
    match opt_atom "doc" uri with
    | None -> []
    | Some a -> (
      let u = Atom.to_string a in
      match Doc_registry.find ~registry:ctx.registry u with
      | Some d -> [ Item.N d ]
      | None -> err "doc: document %S is not available" u))
  | _ -> err "doc: expected 1 argument"

let fn_substring args =
  match args with
  | [ s; start ] ->
    let s = string_arg "substring" s in
    let st = Atom.to_number (singleton_atom "substring" start) in
    let from = max 0 (int_of_float (Float.round st) - 1) in
    if from >= String.length s then str ""
    else str (String.sub s from (String.length s - from))
  | [ s; start; len ] ->
    let s = string_arg "substring" s in
    let st = Float.round (Atom.to_number (singleton_atom "substring" start)) in
    let ln = Float.round (Atom.to_number (singleton_atom "substring" len)) in
    let first = int_of_float st in
    let last = int_of_float (st +. ln) - 1 in
    let from = max 1 first in
    let to_ = min (String.length s) last in
    if to_ < from then str ""
    else str (String.sub s (from - 1) (to_ - from + 1))
  | _ -> err "substring: expected 2 or 3 arguments"

let fn_translate args =
  match args with
  | [ s; from; to_ ] ->
    let s = string_arg "translate" s in
    let from = string_arg "translate" from in
    let to_ = string_arg "translate" to_ in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match String.index_opt from c with
        | None -> Buffer.add_char buf c
        | Some i -> if i < String.length to_ then Buffer.add_char buf to_.[i])
      s;
    str (Buffer.contents buf)
  | _ -> err "translate: expected 3 arguments"

let whitespace_split s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

let find_sub hay needle start =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  if start > h then None else go start

let normalize_space s =
  let words =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\n')
    |> List.concat_map (String.split_on_char '\t')
    |> List.concat_map (String.split_on_char '\r')
    |> List.filter (fun w -> w <> "")
  in
  String.concat " " words

let fn_subsequence args =
  let slice s start len =
    let items = Array.of_list s in
    let n = Array.length items in
    let first = int_of_float (Float.round start) in
    let last =
      match len with
      | None -> n
      | Some l -> first + int_of_float (Float.round l) - 1
    in
    let out = ref [] in
    for i = n downto 1 do
      if i >= first && i <= last then out := items.(i - 1) :: !out
    done;
    !out
  in
  match args with
  | [ s; start ] ->
    slice s (Atom.to_number (singleton_atom "subsequence" start)) None
  | [ s; start; len ] ->
    slice s
      (Atom.to_number (singleton_atom "subsequence" start))
      (Some (Atom.to_number (singleton_atom "subsequence" len)))
  | _ -> err "subsequence: expected 2 or 3 arguments"

let fn_index_of args =
  match args with
  | [ s; target ] ->
    let t = singleton_atom "index-of" target in
    List.filteri (fun _ _ -> true) (Item.atomize s)
    |> List.mapi (fun i a -> (i + 1, a))
    |> List.filter_map (fun (i, a) ->
           if Atom.equal_value a t then Some (Item.A (Atom.Int i)) else None)
  | _ -> err "index-of: expected 2 arguments"

let fn_insert_before args =
  match args with
  | [ target; pos; inserts ] ->
    let p = max 1 (Atom.to_int (singleton_atom "insert-before" pos)) in
    let rec go i = function
      | [] -> inserts
      | x :: rest when i < p -> x :: go (i + 1) rest
      | rest -> inserts @ rest
    in
    go 1 target
  | _ -> err "insert-before: expected 3 arguments"

let fn_remove args =
  match args with
  | [ target; pos ] ->
    let p = Atom.to_int (singleton_atom "remove" pos) in
    List.filteri (fun i _ -> i + 1 <> p) target
  | _ -> err "remove: expected 2 arguments"

let table :
    (string, ctx -> Item.seq list -> Item.seq) Hashtbl.t =
  Hashtbl.create 64

let reg name f = Hashtbl.replace table name f

let arity1 who f = function
  | [ a ] -> f a
  | args -> err "%s: expected 1 argument, got %d" who (List.length args)

let arity2 who f = function
  | [ a; b ] -> f a b
  | args -> err "%s: expected 2 arguments, got %d" who (List.length args)

let () =
  reg "doc" fn_doc;
  reg "id" fn_id;
  reg "idref" fn_idref;
  reg "root" (fun ctx args ->
      match args with
      | [] -> [ Item.N (Node.root (context_node ctx "root")) ]
      | [ s ] -> (
        match opt_node "root" s with
        | None -> []
        | Some n -> [ Item.N (Node.root n) ])
      | _ -> err "root: expected 0 or 1 arguments");
  reg "count" (fun _ -> arity1 "count" (fun s -> int_ (List.length s)));
  reg "empty" (fun _ -> arity1 "empty" (fun s -> [ Item.A (Atom.Bool (s = [])) ]));
  reg "exists" (fun _ -> arity1 "exists" (fun s -> [ Item.A (Atom.Bool (s <> [])) ]));
  reg "not" (fun _ ->
      arity1 "not" (fun s -> [ Item.A (Atom.Bool (not (Item.effective_boolean s))) ]));
  reg "boolean" (fun _ -> arity1 "boolean" bool_);
  reg "true" (fun _ args ->
      if args = [] then [ Item.A (Atom.Bool true) ] else err "true: no arguments");
  reg "false" (fun _ args ->
      if args = [] then [ Item.A (Atom.Bool false) ] else err "false: no arguments");
  reg "data" (fun _ ->
      arity1 "data" (fun s -> List.map (fun a -> Item.A a) (Item.atomize s)));
  reg "string" (fun ctx args ->
      match args with
      | [] -> (
        match ctx.context_item with
        | Some it -> str (Item.string_of_item it)
        | None -> err "string: no context item")
      | [ s ] -> (
        match s with
        | [] -> str ""
        | [ it ] -> str (Item.string_of_item it)
        | _ -> err "string: expected at most one item")
      | _ -> err "string: expected 0 or 1 arguments");
  reg "string-length" (fun ctx args ->
      match args with
      | [] -> (
        match ctx.context_item with
        | Some it -> int_ (String.length (Item.string_of_item it))
        | None -> err "string-length: no context item")
      | [ s ] -> int_ (String.length (string_arg "string-length" s))
      | _ -> err "string-length: expected 0 or 1 arguments");
  reg "normalize-space" (fun ctx args ->
      match args with
      | [] -> (
        match ctx.context_item with
        | Some it -> str (normalize_space (Item.string_of_item it))
        | None -> err "normalize-space: no context item")
      | [ s ] -> str (normalize_space (string_arg "normalize-space" s))
      | _ -> err "normalize-space: expected 0 or 1 arguments");
  reg "concat" (fun _ args ->
      if List.length args < 2 then err "concat: expected 2 or more arguments"
      else
        str (String.concat "" (List.map (string_arg "concat") args)));
  reg "string-join" (fun _ ->
      arity2 "string-join" (fun s sep ->
          let sep = string_arg "string-join" sep in
          str
            (String.concat sep
               (List.map Atom.to_string (Item.atomize s)))));
  reg "contains" (fun _ ->
      arity2 "contains" (fun a b ->
          let a = string_arg "contains" a and b = string_arg "contains" b in
          let n = String.length b in
          let ok = ref (n = 0) in
          if n > 0 then
            for i = 0 to String.length a - n do
              if String.sub a i n = b then ok := true
            done;
          [ Item.A (Atom.Bool !ok) ]));
  reg "starts-with" (fun _ ->
      arity2 "starts-with" (fun a b ->
          let a = string_arg "starts-with" a
          and b = string_arg "starts-with" b in
          [ Item.A
              (Atom.Bool
                 (String.length a >= String.length b
                 && String.sub a 0 (String.length b) = b)) ]));
  reg "ends-with" (fun _ ->
      arity2 "ends-with" (fun a b ->
          let a = string_arg "ends-with" a and b = string_arg "ends-with" b in
          let la = String.length a and lb = String.length b in
          [ Item.A (Atom.Bool (la >= lb && String.sub a (la - lb) lb = b)) ]));
  reg "substring" (fun _ args -> fn_substring args);
  reg "substring-before" (fun _ ->
      arity2 "substring-before" (fun a b ->
          let a = string_arg "substring-before" a
          and b = string_arg "substring-before" b in
          let n = String.length b in
          let res = ref "" in
          (try
             for i = 0 to String.length a - n do
               if n > 0 && String.sub a i n = b then begin
                 res := String.sub a 0 i;
                 raise Exit
               end
             done
           with Exit -> ());
          str !res));
  reg "substring-after" (fun _ ->
      arity2 "substring-after" (fun a b ->
          let a = string_arg "substring-after" a
          and b = string_arg "substring-after" b in
          let n = String.length b in
          let res = ref "" in
          (try
             for i = 0 to String.length a - n do
               if n > 0 && String.sub a i n = b then begin
                 res := String.sub a (i + n) (String.length a - i - n);
                 raise Exit
               end
             done
           with Exit -> ());
          str !res));
  reg "upper-case" (fun _ ->
      arity1 "upper-case" (fun s ->
          str (String.uppercase_ascii (string_arg "upper-case" s))));
  reg "lower-case" (fun _ ->
      arity1 "lower-case" (fun s ->
          str (String.lowercase_ascii (string_arg "lower-case" s))));
  reg "translate" (fun _ args -> fn_translate args);
  reg "number" (fun ctx args ->
      let num s =
        match opt_atom "number" s with
        | None -> dbl Float.nan
        | Some a -> ( try dbl (Atom.to_number a) with Atom.Type_error _ -> dbl Float.nan)
      in
      match args with
      | [] -> (
        match ctx.context_item with
        | Some it -> num [ it ]
        | None -> err "number: no context item")
      | [ s ] -> num s
      | _ -> err "number: expected 0 or 1 arguments");
  reg "sum" (fun _ args ->
      match args with
      | [ s ] -> (
        match numeric_agg "sum" ( +. ) 0.0 s with [] -> int_ 0 | r -> r)
      | [ s; zero ] -> (
        match numeric_agg "sum" ( +. ) 0.0 s with [] -> zero | r -> r)
      | _ -> err "sum: expected 1 or 2 arguments");
  reg "avg" (fun _ ->
      arity1 "avg" (fun s ->
          match Item.atomize s with
          | [] -> []
          | atoms ->
            let total =
              List.fold_left (fun acc a -> acc +. Atom.to_number a) 0.0 atoms
            in
            dbl (total /. float_of_int (List.length atoms))));
  reg "max" (fun _ -> arity1 "max" (fun s -> minmax "max" (fun c -> c > 0) s));
  reg "min" (fun _ -> arity1 "min" (fun s -> minmax "min" (fun c -> c < 0) s));
  reg "abs" (fun _ ->
      arity1 "abs" (fun s ->
          match opt_atom "abs" s with
          | None -> []
          | Some (Atom.Int i) -> int_ (abs i)
          | Some a -> dbl (Float.abs (Atom.to_number a))));
  reg "floor" (fun _ ->
      arity1 "floor" (fun s ->
          match opt_atom "floor" s with
          | None -> []
          | Some (Atom.Int i) -> int_ i
          | Some a -> dbl (Float.floor (Atom.to_number a))));
  reg "ceiling" (fun _ ->
      arity1 "ceiling" (fun s ->
          match opt_atom "ceiling" s with
          | None -> []
          | Some (Atom.Int i) -> int_ i
          | Some a -> dbl (Float.ceil (Atom.to_number a))));
  reg "round" (fun _ ->
      arity1 "round" (fun s ->
          match opt_atom "round" s with
          | None -> []
          | Some (Atom.Int i) -> int_ i
          | Some a -> dbl (Float.round (Atom.to_number a))));
  reg "position" (fun ctx args ->
      if args <> [] then err "position: no arguments"
      else if ctx.context_item = None then err "position: no context item"
      else int_ ctx.context_pos);
  reg "last" (fun ctx args ->
      if args <> [] then err "last: no arguments"
      else if ctx.context_item = None then err "last: no context item"
      else int_ ctx.context_size);
  reg "name" (fun ctx args ->
      let of_node = function None -> str "" | Some n -> str (Node.name n) in
      match args with
      | [] -> of_node (Some (context_node ctx "name"))
      | [ s ] -> of_node (opt_node "name" s)
      | _ -> err "name: expected 0 or 1 arguments");
  reg "local-name" (fun ctx args ->
      let of_node = function
        | None -> str ""
        | Some n -> str (Node.local_name n)
      in
      match args with
      | [] -> of_node (Some (context_node ctx "local-name"))
      | [ s ] -> of_node (opt_node "local-name" s)
      | _ -> err "local-name: expected 0 or 1 arguments");
  reg "distinct-values" (fun _ ->
      arity1 "distinct-values" (fun s ->
          let seen = ref [] in
          List.filter_map
            (fun a ->
              if List.exists (Atom.equal_value a) !seen then None
              else begin
                seen := a :: !seen;
                Some (Item.A a)
              end)
            (Item.atomize s)));
  reg "reverse" (fun _ -> arity1 "reverse" List.rev);
  reg "unordered" (fun _ -> arity1 "unordered" (fun s -> s));
  reg "subsequence" (fun _ args -> fn_subsequence args);
  reg "index-of" (fun _ args -> fn_index_of args);
  reg "insert-before" (fun _ args -> fn_insert_before args);
  reg "remove" (fun _ args -> fn_remove args);
  reg "tokenize" (fun _ ->
      (* literal-separator tokenize (no regular expressions in this
         subset); 1-arg form splits on whitespace *)
      fun args ->
        match args with
        | [ s ] ->
          List.map (fun t -> Item.A (Atom.Str t))
            (whitespace_split (string_arg "tokenize" s))
        | [ s; sep ] ->
          let s = string_arg "tokenize" s in
          let sep = string_arg "tokenize" sep in
          if sep = "" then err "tokenize: empty separator"
          else
            let rec split acc start =
              match find_sub s sep start with
              | None ->
                List.rev (String.sub s start (String.length s - start) :: acc)
              | Some i ->
                split (String.sub s start (i - start) :: acc)
                  (i + String.length sep)
            in
            List.map (fun t -> Item.A (Atom.Str t)) (split [] 0)
        | _ -> err "tokenize: expected 1 or 2 arguments");
  reg "deep-equal" (fun _ ->
      arity2 "deep-equal" (fun a b ->
          [ Item.A (Atom.Bool (Item.deep_equal a b)) ]));
  reg "zero-or-one" (fun _ ->
      arity1 "zero-or-one" (fun s ->
          if List.length s <= 1 then s
          else err "zero-or-one: more than one item"));
  reg "one-or-more" (fun _ ->
      arity1 "one-or-more" (fun s ->
          if s <> [] then s else err "one-or-more: empty sequence"));
  reg "exactly-one" (fun _ ->
      arity1 "exactly-one" (fun s ->
          if List.length s = 1 then s else err "exactly-one: not a singleton"))

let call ctx name args =
  match Hashtbl.find_opt table name with
  | Some f -> Some (f ctx args)
  | None -> None

let is_builtin name = Hashtbl.mem table name

(* The zero-argument forms default to the context item (position()
   and last() read its position and size); one-argument id/idref take
   their document from the context node. *)
let reads_context name arity =
  match (name, arity) with
  | (("true" | "false"), 0) -> false
  | (_, 0) -> is_builtin name
  | (("id" | "idref"), 1) -> true
  | _ -> false

let names () = Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort compare
