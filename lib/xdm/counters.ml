type snapshot = {
  merges : int;
  merged_items : int;
  fallback_sorts : int;
  bitmap_tests : int;
  bitmap_hits : int;
  index_steps : int;
  index_nodes : int;
  col_batches : int;
  col_rows : int;
  col_boxed_rows : int;
  value_index_builds : int;
  value_index_probes : int;
}

let merges = ref 0
let merged_items = ref 0
let fallback_sorts = ref 0
let bitmap_tests = ref 0
let bitmap_hits = ref 0
let index_steps = ref 0
let index_nodes = ref 0
let col_batches = ref 0
let col_rows = ref 0
let col_boxed_rows = ref 0
let value_index_builds = ref 0
let value_index_probes = ref 0

let snapshot () =
  { merges = !merges; merged_items = !merged_items;
    fallback_sorts = !fallback_sorts; bitmap_tests = !bitmap_tests;
    bitmap_hits = !bitmap_hits; index_steps = !index_steps;
    index_nodes = !index_nodes; col_batches = !col_batches;
    col_rows = !col_rows; col_boxed_rows = !col_boxed_rows;
    value_index_builds = !value_index_builds;
    value_index_probes = !value_index_probes }

let zero =
  { merges = 0; merged_items = 0; fallback_sorts = 0; bitmap_tests = 0;
    bitmap_hits = 0; index_steps = 0; index_nodes = 0; col_batches = 0;
    col_rows = 0; col_boxed_rows = 0; value_index_builds = 0;
    value_index_probes = 0 }

let diff a b =
  { merges = a.merges - b.merges;
    merged_items = a.merged_items - b.merged_items;
    fallback_sorts = a.fallback_sorts - b.fallback_sorts;
    bitmap_tests = a.bitmap_tests - b.bitmap_tests;
    bitmap_hits = a.bitmap_hits - b.bitmap_hits;
    index_steps = a.index_steps - b.index_steps;
    index_nodes = a.index_nodes - b.index_nodes;
    col_batches = a.col_batches - b.col_batches;
    col_rows = a.col_rows - b.col_rows;
    col_boxed_rows = a.col_boxed_rows - b.col_boxed_rows;
    value_index_builds = a.value_index_builds - b.value_index_builds;
    value_index_probes = a.value_index_probes - b.value_index_probes }

let add a b =
  { merges = a.merges + b.merges;
    merged_items = a.merged_items + b.merged_items;
    fallback_sorts = a.fallback_sorts + b.fallback_sorts;
    bitmap_tests = a.bitmap_tests + b.bitmap_tests;
    bitmap_hits = a.bitmap_hits + b.bitmap_hits;
    index_steps = a.index_steps + b.index_steps;
    index_nodes = a.index_nodes + b.index_nodes;
    col_batches = a.col_batches + b.col_batches;
    col_rows = a.col_rows + b.col_rows;
    col_boxed_rows = a.col_boxed_rows + b.col_boxed_rows;
    value_index_builds = a.value_index_builds + b.value_index_builds;
    value_index_probes = a.value_index_probes + b.value_index_probes }

let reset () =
  merges := 0;
  merged_items := 0;
  fallback_sorts := 0;
  bitmap_tests := 0;
  bitmap_hits := 0;
  index_steps := 0;
  index_nodes := 0;
  col_batches := 0;
  col_rows := 0;
  col_boxed_rows := 0;
  value_index_builds := 0;
  value_index_probes := 0
