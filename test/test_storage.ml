(* Tests for the document store and path statistics. *)

module DS = Xia_storage.Doc_store
module PS = Xia_storage.Path_stats

let tc name f = Alcotest.test_case name `Quick f

let store_with docs =
  let s = DS.create "T" in
  List.iter (fun d -> ignore (DS.insert s (Helpers.xml d))) docs;
  s

let doc_store_tests =
  [
    tc "insert assigns increasing ids" (fun () ->
        let s = DS.create "T" in
        let a = DS.insert s (Helpers.xml "<a/>") in
        let b = DS.insert s (Helpers.xml "<b/>") in
        Alcotest.(check bool) "increasing" true (b > a);
        Alcotest.(check int) "count" 2 (DS.doc_count s));
    tc "find returns stored document" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a>x</a>") in
        match DS.find s id with
        | Some d -> Alcotest.(check string) "doc" "<a>x</a>" (Xia_xml.Printer.to_string d)
        | None -> Alcotest.fail "not found");
    tc "delete removes and updates totals" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a><b>xxx</b></a>") in
        let bytes = DS.total_bytes s in
        Alcotest.(check bool) "bytes" true (bytes > 0);
        Alcotest.(check bool) "deleted" true (DS.delete s id);
        Alcotest.(check int) "count" 0 (DS.doc_count s);
        Alcotest.(check int) "bytes zero" 0 (DS.total_bytes s);
        Alcotest.(check int) "elements zero" 0 (DS.total_elements s);
        Alcotest.(check bool) "double delete" false (DS.delete s id));
    tc "replace swaps content" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a/>") in
        Alcotest.(check bool) "replaced" true (DS.replace s id (Helpers.xml "<b><c/></b>"));
        Alcotest.(check int) "elements" 2 (DS.total_elements s);
        Alcotest.(check bool) "missing" false (DS.replace s 999 (Helpers.xml "<x/>")));
    tc "generation bumps on DML only" (fun () ->
        let s = DS.create "T" in
        let g0 = DS.generation s in
        let id = DS.insert s (Helpers.xml "<a/>") in
        let g1 = DS.generation s in
        ignore (DS.find s id);
        Alcotest.(check int) "find no bump" g1 (DS.generation s);
        ignore (DS.delete s id);
        Alcotest.(check bool) "bumps" true (DS.generation s > g1 && g1 > g0));
    tc "pages at least one" (fun () ->
        Alcotest.(check int) "pages" 1 (DS.pages (DS.create "T")));
    tc "fold and iter visit all docs" (fun () ->
        let s = store_with [ "<a/>"; "<b/>"; "<c/>" ] in
        Alcotest.(check int) "fold" 3 (DS.fold (fun _ _ n -> n + 1) s 0);
        Alcotest.(check int) "ids" 3 (List.length (DS.doc_ids s)));
    tc "averages" (fun () ->
        let s = store_with [ "<a><b/></a>"; "<a/>" ] in
        Alcotest.(check (float 0.001)) "elems" 1.5 (DS.avg_doc_elements s);
        Alcotest.(check bool) "bytes" true (DS.avg_doc_bytes s > 0.0));
  ]

let stats_of docs = PS.collect (store_with docs)

let path_stats_tests =
  [
    tc "collect counts nodes per path" (fun () ->
        let st = stats_of [ "<a><b>1</b><b>2</b></a>"; "<a><b>3</b></a>" ] in
        match PS.find st [ "a"; "b" ] with
        | Some info ->
            Alcotest.(check int) "nodes" 3 info.PS.node_count;
            Alcotest.(check int) "docs" 2 info.PS.doc_count;
            Alcotest.(check int) "distinct" 3 info.PS.distinct_values
        | None -> Alcotest.fail "path missing");
    tc "distinct values deduplicated" (fun () ->
        let st = stats_of [ "<a><b>x</b><b>x</b><b>y</b></a>" ] in
        match PS.find st [ "a"; "b" ] with
        | Some info -> Alcotest.(check int) "distinct" 2 info.PS.distinct_values
        | None -> Alcotest.fail "path missing");
    tc "numeric stats" (fun () ->
        let st = stats_of [ "<a><v>1.5</v><v>4.5</v><v>nope</v></a>" ] in
        match PS.find st [ "a"; "v" ] with
        | Some info ->
            Alcotest.(check int) "numeric" 2 info.PS.numeric_count;
            Alcotest.(check (float 0.001)) "min" 1.5 info.PS.min_num;
            Alcotest.(check (float 0.001)) "max" 4.5 info.PS.max_num
        | None -> Alcotest.fail "path missing");
    tc "attribute paths recorded" (fun () ->
        let st = stats_of [ {|<a id="1"><b k="2"/></a>|} ] in
        Alcotest.(check bool) "a/@id" true (PS.find st [ "a"; "@id" ] <> None);
        Alcotest.(check bool) "a/b/@k" true (PS.find st [ "a"; "b"; "@k" ] <> None));
    tc "dataguide size" (fun () ->
        let st = stats_of [ "<a><b/><c><d/></c></a>" ] in
        Alcotest.(check int) "paths" 4 (PS.path_count st);
        Alcotest.(check int) "all_paths" 4 (List.length (PS.all_paths st)));
    tc "doc-level aggregates" (fun () ->
        let st = stats_of [ "<a><b/></a>"; "<a/>" ] in
        Alcotest.(check int) "docs" 2 st.PS.doc_count;
        Alcotest.(check int) "elements" 3 st.PS.total_elements);
    tc "matching respects the pattern" (fun () ->
        let st = stats_of [ "<a><b><s>1</s></b><c><s>2</s></c></a>" ] in
        let hits = PS.matching st (Helpers.pattern "/a/*/s") in
        Alcotest.(check int) "two paths" 2 (List.length hits);
        let hits2 = PS.matching st (Helpers.pattern "/a/b/s") in
        Alcotest.(check int) "one path" 1 (List.length hits2));
    tc "matching is memoized per generation" (fun () ->
        let store = store_with [ "<a><b>1</b></a>" ] in
        let st = PS.collect store in
        let h1 = PS.matching st (Helpers.pattern "//b") in
        let h2 = PS.matching st (Helpers.pattern "//b") in
        Alcotest.(check bool) "same" true (h1 == h2));
    tc "avg_value_bytes" (fun () ->
        let st = stats_of [ "<a><b>xx</b><b>yyyy</b></a>" ] in
        match PS.find st [ "a"; "b" ] with
        | Some info -> Alcotest.(check (float 0.001)) "avg" 3.0 (PS.avg_value_bytes info)
        | None -> Alcotest.fail "path missing");
    tc "ordered is deterministic" (fun () ->
        let st = stats_of [ "<a><z/><m/><b/></a>" ] in
        let keys = List.map (fun i -> i.PS.path_key) st.PS.ordered in
        Alcotest.(check (list string)) "sorted" [ "a"; "a/b"; "a/m"; "a/z" ] keys);
  ]

(* Reference for [Doc_store.changes_since]: the filter-based definition over a
   model of the change log kept beside the store (newest first; a replace is a
   delete and an insert at one generation; truncated, like the store's, when
   a record finds 20,000 entries retained). *)
module Log_model = struct
  type t = {
    store : DS.t;
    mutable log : (int * [ `Insert | `Delete ] * int) list;
    mutable size : int;
    mutable floor : int;
  }

  let create () = { store = DS.create "T"; log = []; size = 0; floor = 0 }

  let record m kind id =
    if m.size >= 20_000 then begin
      m.log <- [];
      m.size <- 0;
      m.floor <- DS.generation m.store
    end;
    m.log <- (DS.generation m.store, kind, id) :: m.log;
    m.size <- m.size + 1

  let insert m = record m `Insert (DS.insert m.store (Helpers.xml "<a/>"))

  let delete m id = if DS.delete m.store id then record m `Delete id

  let replace m id =
    if DS.replace m.store id (Helpers.xml "<b/>") then begin
      record m `Delete id;
      record m `Insert id
    end

  let expected m gen =
    if gen < m.floor then None
    else Some (List.rev (List.filter (fun (g, _, _) -> g > gen) m.log))

  let actual m gen =
    Option.map
      (List.map (fun (c : DS.change) -> (c.DS.gen, c.DS.kind, c.DS.doc_id)))
      (DS.changes_since m.store gen)

  let agrees m gen = actual m gen = expected m gen
end

let change_log_tests =
  [
    tc "changes_since across truncation equals the filter definition" (fun () ->
        let m = Log_model.create () in
        for _ = 1 to 19_999 do Log_model.insert m done;
        (* The replace's delete fills the log; its insert truncates it. *)
        Log_model.replace m 5;
        let g = DS.generation m.store in
        Alcotest.(check bool) "truncated at the replace" true (m.floor = g);
        Alcotest.(check bool) "None before the floor" true (DS.changes_since m.store (g - 1) = None);
        Log_model.insert m;
        Log_model.delete m 7;
        Log_model.replace m 9;
        List.iter
          (fun gen ->
            if not (Log_model.agrees m gen) then Alcotest.failf "differs at gen %d" gen)
          [ 0; 1; g - 2; g - 1; g; g + 1; g + 2; g + 3; g + 4; DS.generation m.store ]);
  ]

let properties =
  [
    QCheck.Test.make ~count:100 ~name:"changes_since equals the filter definition"
      QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_range 0 2) (int_range 0 10)))
      (fun ops ->
        let m = Log_model.create () in
        List.iter
          (fun (op, id) ->
            match op with
            | 0 -> Log_model.insert m
            | 1 -> Log_model.delete m id
            | _ -> Log_model.replace m id)
          ops;
        List.for_all (Log_model.agrees m) (List.init (DS.generation m.store + 2) Fun.id));

    QCheck.Test.make ~count:100 ~name:"stats node totals match document walk"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 5) Helpers.doc_arbitrary)
      (fun docs ->
        let s = DS.create "P" in
        List.iter (fun d -> ignore (DS.insert s d)) docs;
        let st = PS.collect s in
        let total_from_stats = PS.fold (fun acc i -> acc + i.PS.node_count) st 0 in
        let total_walk = ref 0 in
        DS.iter (fun _ d -> Xia_xml.Types.iter_nodes (fun _ _ _ -> incr total_walk) d) s;
        total_from_stats = !total_walk);
    QCheck.Test.make ~count:100 ~name:"doc_count per path never exceeds table docs"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 5) Helpers.doc_arbitrary)
      (fun docs ->
        let s = DS.create "P" in
        List.iter (fun d -> ignore (DS.insert s d)) docs;
        let st = PS.collect s in
        PS.fold (fun ok i -> ok && i.PS.doc_count <= st.PS.doc_count) st true);
  ]

let suites =
  [
    ("storage.doc_store", doc_store_tests);
    ("storage.path_stats", path_stats_tests);
    ("storage.change_log", change_log_tests);
    Helpers.qsuite "storage.properties" properties;
  ]
