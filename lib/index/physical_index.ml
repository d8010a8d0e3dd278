(* Materialized partial XML index.

   Entries are (key, doc, node) triples for every node covered by the index
   pattern (and, for Ddouble, whose value parses as a number), kept sorted by
   key for binary-search lookups — a flat stand-in for a B-tree with the same
   asymptotics. *)

module Doc_store = Xia_storage.Doc_store
module Cost_params = Xia_storage.Cost_params

type key =
  | Kstring of string
  | Kdouble of float

let compare_key a b =
  match a, b with
  | Kstring x, Kstring y -> String.compare x y
  | Kdouble x, Kdouble y -> Float.compare x y
  | Kstring _, Kdouble _ -> 1
  | Kdouble _, Kstring _ -> -1

let pp_key ppf = function
  | Kstring s -> Fmt.pf ppf "%S" s
  | Kdouble f -> Fmt.float ppf f

type entry = {
  key : key;
  doc : Doc_store.doc_id;
  node : Xia_xml.Types.node_id;
}

type t = {
  def : Index_def.t;
  entries : entry array;
  built_generation : int;
  key_bytes : int;
}

let def t = t.def
let entry_count t = Array.length t.entries
let built_generation t = t.built_generation

let key_of_value dtype value =
  match dtype with
  | Index_def.Dstring -> Some (Kstring value)
  | Index_def.Ddouble -> (
      match float_of_string_opt (String.trim value) with
      | Some v -> Some (Kdouble v)
      | None -> None)

let key_size = function Kstring s -> String.length s | Kdouble _ -> 8

let compare_entry a b =
  match compare_key a.key b.key with
  | 0 -> (
      match Int.compare a.doc b.doc with
      | 0 -> Xia_xml.Types.compare_node_id a.node b.node
      | c -> c)
  | c -> c

(* [entries] must already be sorted by [compare_entry]. *)
let of_sorted def ~generation entries =
  let key_bytes = Array.fold_left (fun n e -> n + key_size e.key) 0 entries in
  { def; entries; built_generation = generation; key_bytes }

(* [collect def iter] walks every document [iter] visits and returns their
   entries sorted.  Each walk is one preorder pass carrying the pattern's NFA
   state set: no label path is built, text is read only where the set
   accepts, and a subtree whose set is empty is skipped (its elements still
   advance [pre]).  Match masks are memoized per label, attribute names
   ("@name") in their own table.  [iter] may visit in hash order: the sort is
   under [compare_entry], a total order on distinct entries. *)
let collect (def : Index_def.t) iter =
  let module Nfa = Xia_xpath.Nfa in
  let module X = Xia_xml.Types in
  let nfa = Xia_xpath.Pattern.nfa_of def.pattern in
  let desc = Nfa.desc_mask nfa in
  let elem_masks = Hashtbl.create 64 and attr_masks = Hashtbl.create 16 in
  let mask tbl symbol name =
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None ->
        let m = Nfa.match_mask nfa (symbol name) in
        Hashtbl.add tbl name m;
        m
  in
  let acc = ref [] and doc = ref 0 and pre = ref 0 in
  let emit node value =
    match key_of_value def.dtype value with
    | Some key -> acc := { key; doc = !doc; node } :: !acc
    | None -> ()
  in
  let rec walk set = function
    | X.Text _ -> ()
    | X.Element e as node ->
        let set = Nfa.advance_masks ~desc ~matches:(mask elem_masks Fun.id e.tag) set in
        if set = 0 then pre := !pre + X.count_elements node
        else begin
          let here = !pre in
          incr pre;
          if Nfa.accepting nfa set then emit { X.pre = here; attr = None } (X.direct_text e);
          List.iteri
            (fun i (k, v) ->
              let matches = mask attr_masks (fun k -> "@" ^ k) k in
              if Nfa.accepting nfa (Nfa.advance_masks ~desc ~matches set) then
                emit { X.pre = here; attr = Some i } v)
            e.attrs;
          walk_children set e.children
        end
  and walk_children set = function
    | [] -> ()
    | c :: rest -> walk set c; walk_children set rest
  in
  iter (fun doc_id tree ->
      doc := doc_id;
      pre := 0;
      walk Nfa.initial tree);
  let entries = Array.of_list !acc in
  Array.stable_sort compare_entry entries;
  entries

let build store (def : Index_def.t) =
  let entries = collect def (fun visit -> Doc_store.iter visit store) in
  of_sorted def ~generation:(Doc_store.generation store) entries

(* Incremental maintenance without rescanning the table: touched documents'
   old entries are filtered out of the sorted array, their final versions are
   walked again, and the sorted additions are merged in, in O(n + k). *)
let apply_changes pi ~generation (changes : Doc_store.change list) =
  let net : (Doc_store.doc_id, Xia_xml.Types.t option) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c : Doc_store.change) ->
      match c.kind with
      | `Insert -> Hashtbl.replace net c.doc_id (Some c.doc)
      | `Delete -> Hashtbl.replace net c.doc_id None)
    changes;
  let added =
    collect pi.def (fun visit ->
        Hashtbl.iter (fun doc_id doc -> Option.iter (visit doc_id) doc) net)
  in
  let old = pi.entries and keep e = not (Hashtbl.mem net e.doc) in
  let n = Array.length old and k = Array.length added in
  let i = ref 0 and j = ref 0 in
  let merged =
    Array.init
      (k + Array.fold_left (fun c e -> if keep e then c + 1 else c) 0 old)
      (fun _ ->
        while !i < n && not (keep old.(!i)) do incr i done;
        let from_added = !j < k && (!i = n || compare_entry added.(!j) old.(!i) < 0) in
        let e = if from_added then added.(!j) else old.(!i) in
        if from_added then incr j else incr i;
        e)
  in
  of_sorted pi.def ~generation merged

(* First position with key >= k (lower bound). *)
let lower_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t.entries.(mid).key k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First position with key > k (upper bound). *)
let upper_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t.entries.(mid).key k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let slice t lo hi =
  let rec collect i acc = if i < lo then acc else collect (i - 1) (t.entries.(i) :: acc) in
  if hi <= lo then [] else collect (hi - 1) []

let lookup_eq t k = slice t (lower_bound t k) (upper_bound t k)

type bound =
  | Unbounded
  | Inclusive of key
  | Exclusive of key

let lookup_range t ~lo ~hi =
  let start =
    match lo with
    | Unbounded -> 0
    | Inclusive k -> lower_bound t k
    | Exclusive k -> upper_bound t k
  in
  let stop =
    match hi with
    | Unbounded -> Array.length t.entries
    | Inclusive k -> upper_bound t k
    | Exclusive k -> lower_bound t k
  in
  slice t start stop

let lookup_ne t k =
  slice t 0 (lower_bound t k) @ slice t (upper_bound t k) (Array.length t.entries)

let all t = slice t 0 (Array.length t.entries)

let iter f t = Array.iter f t.entries

(* Actual size under the same layout model used for virtual indexes, so that
   real and virtual configurations are measured with one yardstick. *)
let size_bytes t =
  let entries = Array.length t.entries in
  if entries = 0 then Cost_params.page_size
  else
    let avg_key_bytes = float_of_int t.key_bytes /. float_of_int entries in
    let size, _, _ = Index_stats.btree_shape ~entries ~avg_key_bytes in
    size

let distinct_doc_count entries =
  let seen = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace seen e.doc ()) entries;
  Hashtbl.length seen
