(* Tests for directory persistence, workload files and the what-if report. *)

module P = Xia_storage.Persist
module DS = Xia_storage.Doc_store
module Cat = Xia_index.Catalog
module W = Xia_workload.Workload
module Report = Xia_advisor.Report
module D = Xia_index.Index_def

let tc name f = Alcotest.test_case name `Quick f

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh directory (created atomically, never reused) for the duration of
   [f], removed with its contents when [f] returns or raises. *)
let with_tmp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let write_file dir name content =
  let oc = open_out (Filename.concat dir name) in
  output_string oc content;
  close_out oc

let persist_tests =
  [
    tc "save then load roundtrips documents" (fun () ->
        let store = DS.create "T" in
        ignore (DS.insert store (Helpers.xml "<a><b>1</b></a>"));
        ignore (DS.insert store (Helpers.xml {|<a id="7">x</a>|}));
        with_tmp_dir "xia_save" @@ fun dir ->
        P.save_directory store dir;
        let store2 = DS.create "T2" in
        let report = P.load_directory store2 dir in
        Alcotest.(check int) "loaded" 2 report.P.loaded;
        Alcotest.(check (list (pair string string))) "no failures" [] report.P.failed;
        Alcotest.(check int) "count" 2 (DS.doc_count store2);
        Alcotest.(check int) "elements" (DS.total_elements store) (DS.total_elements store2));
    tc "load skips non-xml files and reports bad xml" (fun () ->
        with_tmp_dir "xia_load" @@ fun dir ->
        write_file dir "good.xml" "<a/>";
        write_file dir "bad.xml" "<a><b></a>";
        write_file dir "notes.txt" "not xml";
        let store = DS.create "T" in
        let report = P.load_directory store dir in
        Alcotest.(check int) "loaded" 1 report.P.loaded;
        Alcotest.(check int) "failed" 1 (List.length report.P.failed);
        Alcotest.(check int) "count" 1 (DS.doc_count store));
    tc "load of missing directory raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (P.load_directory (DS.create "T") "/nonexistent/dir/xyz");
             false
           with Invalid_argument _ -> true));
    tc "save creates nested directories" (fun () ->
        let store = DS.create "T" in
        ignore (DS.insert store (Helpers.xml "<a/>"));
        with_tmp_dir "xia_nest" @@ fun root ->
        let dir = Filename.concat root (Filename.concat "deep" "er") in
        P.save_directory store dir;
        Alcotest.(check bool) "exists" true (Sys.is_directory dir));
    tc "ids reproducible via filename order" (fun () ->
        with_tmp_dir "xia_order" @@ fun dir ->
        write_file dir "b.xml" "<b/>";
        write_file dir "a.xml" "<a/>";
        let store = DS.create "T" in
        ignore (P.load_directory store dir);
        match DS.find store 0 with
        | Some doc ->
            Alcotest.(check (option string)) "first is a.xml" (Some "a")
              (Xia_xml.Types.tag_of doc)
        | None -> Alcotest.fail "doc 0 missing");
  ]

let workload_file_tests =
  [
    tc "workload_lines parses frequencies and comments" (fun () ->
        with_tmp_dir "xia_wl" @@ fun dir ->
        write_file dir "wl.txt"
          "# comment\n\nfor $x in T/a return $x\n5.5|delete from T where /a\n";
        let lines = P.workload_lines (Filename.concat dir "wl.txt") in
        Alcotest.(check int) "two" 2 (List.length lines);
        (match lines with
        | [ (f1, _); (f2, s2) ] ->
            Alcotest.(check (float 0.001)) "default" 1.0 f1;
            Alcotest.(check (float 0.001)) "explicit" 5.5 f2;
            Alcotest.(check string) "text" "delete from T where /a" s2
        | _ -> Alcotest.fail "unexpected"));
    tc "Workload.of_file accepts both languages" (fun () ->
        with_tmp_dir "xia_wl2" @@ fun dir ->
        write_file dir "wl.txt"
          ("for $x in T/a where $x/k = \"v\" return $x\n"
         ^ "2.0|SELECT * FROM T WHERE XMLEXISTS('/a[k=\"v\"]')\n");
        let wl = W.of_file (Filename.concat dir "wl.txt") in
        Alcotest.(check int) "two" 2 (W.size wl);
        (* Both lines must expose the same indexable pattern. *)
        match List.map (fun (i : W.item) -> Xia_query.Rewriter.indexable_patterns i.W.statement) wl with
        | [ [ (_, p1, _) ]; [ (_, p2, _) ] ] ->
            Alcotest.(check string) "same" (Xia_xpath.Pattern.to_string p1)
              (Xia_xpath.Pattern.to_string p2)
        | _ -> Alcotest.fail "expected one pattern each");
    tc "of_file reports parse errors with line numbers" (fun () ->
        with_tmp_dir "xia_wl3" @@ fun dir ->
        write_file dir "wl.txt" "for $x in T/a return $x\nnot a statement\n";
        Alcotest.(check bool) "raises" true
          (try
             ignore (W.of_file (Filename.concat dir "wl.txt"));
             false
           with Invalid_argument msg -> String.length msg > 0));
  ]

let report_tests =
  [
    tc "what-if report on the TPoX fixture" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let defs =
          [
            D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol")
              ~dtype:D.Dstring ();
            D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Name")
              ~dtype:D.Dstring ();
          ]
        in
        let r = Report.evaluate_configuration catalog wl defs in
        Alcotest.(check int) "statements" (W.size wl) (List.length r.Report.statements);
        Alcotest.(check bool) "speedup > 1" true (r.Report.est_speedup > 1.0);
        Alcotest.(check bool) "size positive" true (r.Report.total_size > 0);
        (* /Security/Name is never a predicate: must be reported unused. *)
        Alcotest.(check int) "one unused" 1 (List.length r.Report.unused);
        Alcotest.(check bool) "name is the unused one" true
          (match r.Report.unused with
          | [ d ] -> Xia_xpath.Pattern.to_string d.D.pattern = "/Security/Name"
          | _ -> false));
    tc "report maintenance positive with DML workload" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload_with_updates ~update_freq:10.0 () in
        let defs =
          [
            D.make ~table:Xia_workload.Tpox.order_table
              ~pattern:(Helpers.pattern "/FIXML/Order/@ID") ~dtype:D.Dstring ();
          ]
        in
        let r = Report.evaluate_configuration catalog wl defs in
        Alcotest.(check bool) "charged" true (r.Report.maintenance > 0.0));
    tc "report renders" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Workload.prefix 2 (Xia_workload.Tpox.workload ()) in
        let r = Report.evaluate_configuration catalog wl [] in
        let text = Fmt.str "%a" Report.pp r in
        Alcotest.(check bool) "mentions workload" true
          (String.length text > 40));
  ]

let suites =
  [
    ("persist.directory", persist_tests);
    ("persist.workload_file", workload_file_tests);
    ("report.whatif", report_tests);
  ]
