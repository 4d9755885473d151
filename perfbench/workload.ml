(* The three workloads: their documents, request streams and reference
   results. The request streams derive from the seed the benchmark is
   given. The server only ever sees the generated XML and the request
   lines.

   References are computed here, before anything is timed, by another
   path than the server's: a fresh in-process registry parsed from the
   same XML bytes, evaluated by the Naive interpreter (Definition 2.1
   itself, no caches, no IVM, no pinned Delta mode). *)

module Xdm = Fixq_xdm
module W = Fixq_workloads
module Json = Fixq_service.Json
module Store = Fixq_service.Store

type req = {
  line : string;  (** the request frame sent to the server *)
  write : bool;  (** patch-doc (true) or run (false) *)
  expect : string;
      (** reads: the reference result bytes; writes: the expected
          ["inserted/deleted"] node counts of the edit *)
  frag : string;  (** what a correct response holds, as it is encoded *)
}

type t = {
  name : string;
  docs : (string * string) list;  (** (uri, xml) in load order *)
  durable : bool;  (** serve with a --state-dir *)
  warmup : req array;  (** sent untimed after the loads *)
  timed : req array;
      (** the timed stream; request [i] of a run is [timed.(i mod n)] *)
  probe : req array;
      (** read-only workloads: patch-docs on {!probe_doc} sent after the
          timed window; empty where the timed stream writes *)
  params : (string * string) list;  (** recorded workload parameters *)
}

let names = [ "table2-recompute"; "param-sweep"; "edit-mix" ]

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* Every run serves the same documents, built with the generators'
   default seeds: their shape (network diameter, closure sizes) sets
   the cost of a request, so documents drawn from the run seed would
   spread the figures by more than a regression worth catching. The
   run seed drives the request streams instead.

   fn:id needs the ID declaration, which the serializer does not emit. *)
let curriculum_doctype =
  "<!DOCTYPE curriculum [<!ATTLIST course code ID #REQUIRED>]>\n"

let xmark scale =
  Xdm.Serializer.to_string
    (W.Xmark.generate { W.Xmark.default with W.Xmark.scale })

let curriculum courses =
  curriculum_doctype
  ^ Xdm.Serializer.to_string
      (W.Curriculum.generate { W.Curriculum.default with courses })

let play () =
  Xdm.Serializer.to_string
    (W.Shakespeare.generate W.Shakespeare.default)

let hospital total =
  Xdm.Serializer.to_string
    (W.Hospital.generate { W.Hospital.default with total })

(* ------------------------------------------------------------------ *)
(* Requests and the reference oracle                                   *)
(* ------------------------------------------------------------------ *)

let run_line ?engine ?(cache = true) query =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "run"); ("query", Json.Str query) ]
       @ (match engine with Some e -> [ ("engine", Json.Str e) ] | None -> [])
       @ if cache then [] else [ ("cache", Json.Bool false) ]))

let load_line uri xml =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
         ("xml", Json.Str xml) ])

let reference_store docs =
  let store = Store.create () in
  List.iter (fun (uri, xml) -> Store.load_xml store ~uri xml) docs;
  store

let naive store query =
  let report =
    Fixq.run ~registry:(Store.registry store)
      ~engine:(Fixq.Interpreter Fixq.Naive) query
  in
  Xdm.Serializer.seq_to_string report.Fixq.result

let read ?engine ?cache ~expect query =
  { line = run_line ?engine ?cache query; write = false; expect;
    frag = "\"result\":" ^ Json.to_string (Json.Str expect) ^ "," }

let write line ~inserted ~deleted =
  { line; write = true; expect = Printf.sprintf "%d/%d" inserted deleted;
    frag = Printf.sprintf "\"inserted\":%d,\"deleted\":%d," inserted deleted }

(* The read-only workloads also load a one-element side document that
   no query reads. After the timed window the benchmark patches it,
   inserting an [<item/>] and deleting it again: that gives a write
   latency without disturbing the reads or their caches. *)
let probe_doc = ("probe.xml", "<probe/>")
let probe_pairs = 10_000

let probe =
  let patch fields =
    Json.to_string
      (Json.Obj
         ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str (fst probe_doc)) ]
         @ fields))
  in
  let insert =
    write ~inserted:1 ~deleted:0
      (patch
         [ ("action", Json.Str "insert"); ("path", Json.Str "/probe");
           ("xml", Json.Str "<item/>") ])
  in
  let delete =
    write ~inserted:0 ~deleted:1
      (patch
         [ ("action", Json.Str "delete"); ("path", Json.Str "/probe/item[1]") ])
  in
  Array.concat (List.init probe_pairs (fun _ -> [| insert; delete |]))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = W.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* ------------------------------------------------------------------ *)
(* table2-recompute                                                    *)
(* ------------------------------------------------------------------ *)

let t2_xmark_scale = 0.004
let t2_courses = 400
let t2_patients = 5000
let t2_blocks = 256

let table2 ~seed =
  let docs =
    [ ("auction.xml", xmark t2_xmark_scale);
      ("romeo.xml", play ());
      ("curriculum.xml", curriculum t2_courses);
      ("hospital.xml", hospital t2_patients); probe_doc ]
  in
  let store = reference_store docs in
  let families =
    [ W.Queries.bidder_network; W.Queries.dialogs; W.Queries.curriculum_check;
      W.Queries.hospital ]
  in
  (* per family: three default-engine (interp) requests, one algebra *)
  let block =
    List.concat_map
      (fun q ->
        let expect = naive store q in
        let r engine = read ?engine ~cache:false ~expect q in
        [ r None; r None; r None; r (Some "algebra") ])
      families
    |> Array.of_list
  in
  let rng = W.Rng.create seed in
  let timed =
    Array.concat
      (List.init t2_blocks (fun _ ->
           let b = Array.copy block in
           shuffle rng b;
           b))
  in
  let warmup =
    Array.of_list
      (List.concat_map
         (fun q ->
           let expect = naive store q in
           [ read ~cache:false ~expect q;
             read ~engine:"algebra" ~cache:false ~expect q ])
         families)
  in
  { name = "table2-recompute"; docs; durable = false; warmup; timed;
    probe;
    params =
      [ ("documents",
         Printf.sprintf "xmark %g, play (default), curriculum %d, hospital %d"
           t2_xmark_scale t2_courses t2_patients);
        ("mix",
         "4 Table-2 families x (3 interp : 1 algebra), cache:false, \
          seeded shuffle per 16-request block") ] }

(* ------------------------------------------------------------------ *)
(* param-sweep                                                         *)
(* ------------------------------------------------------------------ *)

let ps_courses = 1600
let ps_xmark_scale = 0.004
let ps_zipf = 1.0
let ps_draws = 32768
let ps_warmup = 512

let q1_at code =
  Printf.sprintf
    {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="%s"]
recurse $x/id(./prerequisites/pre_code)|}
    code

(* Zipf(s) over ranks 1..n by inverse CDF. *)
let zipf_sampler rng ~s n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = W.Rng.float rng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let param_sweep ~seed =
  let docs =
    [ ("curriculum.xml", curriculum ps_courses);
      ("auction.xml", xmark ps_xmark_scale); probe_doc ]
  in
  let store = reference_store docs in
  let persons = W.Xmark.persons_of_scale ps_xmark_scale in
  let q1s =
    Array.init ps_courses (fun i -> q1_at (Printf.sprintf "c%d" (i + 1)))
  in
  let bidders =
    Array.init persons (fun i ->
        W.Queries.bidder_network_single (Printf.sprintf "person%d" i))
  in
  (* Each kind has its own Zipf draw over a seeded rank order, and every
     fourth request is a bidder query: a single draw over both kinds
     let the seed decide how many bidder misses (the slowest requests)
     there were, and so where read_p99_ms fell. *)
  let rng = W.Rng.create seed in
  shuffle rng q1s;
  shuffle rng bidders;
  let draw_q1 = zipf_sampler rng ~s:ps_zipf ps_courses in
  let draw_bidder = zipf_sampler rng ~s:ps_zipf persons in
  let refs = Hashtbl.create 2048 in
  let request i =
    let q =
      if i mod 4 = 3 then bidders.(draw_bidder ()) else q1s.(draw_q1 ())
    in
    match Hashtbl.find_opt refs q with
    | Some r -> r
    | None ->
      let r = read ~expect:(naive store q) q in
      Hashtbl.replace refs q r;
      r
  in
  let warmup = Array.init ps_warmup request in
  let timed = Array.init ps_draws request in
  { name = "param-sweep"; docs; durable = false; warmup; timed;
    probe;
    params =
      [ ("documents",
         Printf.sprintf "curriculum %d, xmark %g" ps_courses ps_xmark_scale);
        ("mix",
         Printf.sprintf
           "3 Q1 at c<k> (%d texts) : 1 bidder_network_single person<k> (%d \
            texts), default engine, caches on"
           ps_courses persons);
        ("zipf", Printf.sprintf "s=%g per kind, seeded rank orders" ps_zipf);
        ("distinct", Printf.sprintf "%d texts drawn in %d timed draws"
           (Hashtbl.length refs) ps_draws);
        ("caches", "prepared LRU 64, result LRU 256 (serve defaults)") ] }

(* ------------------------------------------------------------------ *)
(* edit-mix                                                            *)
(* ------------------------------------------------------------------ *)

let em_xmark_scale = 0.002
let em_courses = 400
let em_episodes = 8

let closure_query =
  {|with $x seeded by doc("auction.xml")/site recurse $x/descendant-or-self::*/bidder|}

let patch_line fields =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str "auction.xml") ]
       @ fields))

let count_children name node =
  List.length
    (List.filter
       (fun c -> Xdm.Node.name c = name)
       (Xdm.Node.children node))

(* One episode inserts a bidder into a seeded open auction, rewrites its
   text, then deletes it again: every episode ends on the base document,
   so the edit script is periodic and its references finite. *)
let edit_mix ~seed =
  let docs =
    [ ("auction.xml", xmark em_xmark_scale);
      ("curriculum.xml", curriculum em_courses) ]
  in
  let store = reference_store docs in
  let rng = W.Rng.create seed in
  let q1 = q1_at (Printf.sprintf "c%d" (1 + W.Rng.int rng em_courses)) in
  let q1_ref = naive store q1 in
  let auctions = W.Xmark.auctions_of_scale em_xmark_scale in
  let persons = W.Xmark.persons_of_scale em_xmark_scale in
  let auction_root () =
    Option.get
      (Xdm.Doc_registry.find ~registry:(Store.registry store) "auction.xml")
  in
  let base_xml = Xdm.Serializer.to_string (auction_root ()) in
  let reads () =
    [ read ~expect:(naive store closure_query) closure_query;
      read ~expect:(naive store W.Queries.bidder_network)
        W.Queries.bidder_network;
      read ~expect:q1_ref q1 ]
  in
  let initial_reads = reads () in
  let cycle fields op =
    let delta = Store.patch store ~uri:"auction.xml" op in
    write (patch_line fields) ~inserted:delta.Xdm.Patch.inserted_count
      ~deleted:(List.length delta.Xdm.Patch.deleted)
    :: reads ()
  in
  let episode i =
    let j = 1 + W.Rng.int rng auctions in
    let auction = Printf.sprintf "/site/open_auctions/open_auction[%d]" j in
    let bidders =
      count_children "bidder" (Xdm.Patch.resolve (auction_root ()) auction)
    in
    let bidder = Printf.sprintf "%s/bidder[%d]" auction (bidders + 1) in
    let xml =
      Printf.sprintf
        "<bidder><personref person=\"person%d\"/><increase>%d.00</increase></bidder>"
        (W.Rng.int rng persons) (1 + W.Rng.int rng 9)
    in
    let text = Printf.sprintf "%d.50" (10 + i) in
    let insert =
      cycle
        [ ("action", Json.Str "insert"); ("path", Json.Str auction);
          ("xml", Json.Str xml) ]
        (Xdm.Patch.Insert { path = auction; position = Xdm.Patch.Last; xml })
    in
    let set_text =
      let path = bidder ^ "/increase" in
      cycle
        [ ("action", Json.Str "set-text"); ("path", Json.Str path);
          ("text", Json.Str text) ]
        (Xdm.Patch.Set_text { path; text })
    in
    let delete =
      cycle
        [ ("action", Json.Str "delete"); ("path", Json.Str bidder) ]
        (Xdm.Patch.Delete { path = bidder })
    in
    insert @ set_text @ delete
  in
  let timed = Array.of_list (List.concat (List.init em_episodes episode)) in
  if Xdm.Serializer.to_string (auction_root ()) <> base_xml then
    failwith "edit-mix: an episode did not restore the base document";
  (* warm-up: the three reads, then the first episode (3 cycles of 4) *)
  { name = "edit-mix"; docs; durable = true;
    warmup = Array.append (Array.of_list initial_reads) (Array.sub timed 0 12);
    timed; probe = [||];
    params =
      [ ("documents",
         Printf.sprintf "xmark %g (auction.xml), curriculum %d" em_xmark_scale
           em_courses);
        ("cycle",
         "1 patch-doc on auction.xml, then reads: IVM-full bidder closure, \
          bidder_network (ineligible), Q1 on curriculum.xml");
        ("edits",
         Printf.sprintf
           "%d seeded episodes of insert bidder / set-text its increase / \
            delete it, repeated"
           em_episodes);
        ("flush",
         "--state-dir: WAL append without fsync, fsync + snapshot every 64 \
          logged ops (serve default)") ] }

let make name ~seed =
  match name with
  | "table2-recompute" -> table2 ~seed
  | "param-sweep" -> param_sweep ~seed
  | "edit-mix" -> edit_mix ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
