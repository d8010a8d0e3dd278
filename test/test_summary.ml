(* Workload compression (Workload_summary) and upper-bound pruning tests.

   - Differential: on duplicate-heavy workloads (cost-homogeneous clusters)
     the compressed advisor recommends exactly the raw advisor's indexes,
     across benchmarks and domain counts.
   - Bounded regret: on a heterogeneous workload (same signatures, different
     constants) the compressed recommendation's true estimated cost stays
     close to the raw recommendation's.
   - Clustering determinism: the signature partition is a stable,
     permutation-insensitive function of the workload.
   - Pruning soundness: every pruned search returns the same outcome as its
     unpruned twin, and the pruned counter actually fires at scale. *)

module A = Xia_advisor.Advisor
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module En = Xia_advisor.Enumeration
module WS = Xia_advisor.Workload_summary
module Cat = Xia_index.Catalog
module W = Xia_workload.Workload
module Synthetic = Xia_workload.Synthetic

let tc name f = Alcotest.test_case name `Quick f

let xmark_catalog =
  lazy
    (let catalog = Cat.create () in
     Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale ~seed:7 catalog;
     catalog)

(* [k] literal copies of every item (fresh labels, same statement value and
   frequency): every cluster is cost-homogeneous by construction. *)
let dup k (wl : W.t) =
  List.concat_map
    (fun (it : W.item) ->
      List.init k (fun i ->
          { it with W.label = Printf.sprintf "%s#%d" it.W.label i }))
    wl

let defs_of (r : A.recommendation) =
  List.map
    (fun (c : C.t) -> Xia_index.Index_def.logical_key c.C.def)
    r.A.outcome.S.config

(* ---------- differential: compressed == raw on homogeneous clusters ------- *)

let differential_case (name, catalog, wl) =
  tc (name ^ ": compressed = raw on duplicate-heavy workload") (fun () ->
      let catalog = Lazy.force catalog in
      let wl = dup 4 wl in
      List.iter
        (fun domains ->
          List.iter
            (fun alg ->
              let budget = 512 * 1024 in
              let raw =
                A.advise ~domains ~compress:false catalog wl ~budget alg
              in
              let comp =
                A.advise ~domains ~compress:true catalog wl ~budget alg
              in
              let label what =
                Printf.sprintf "%s/%s/domains=%d %s" name
                  (A.algorithm_name alg) domains what
              in
              Alcotest.(check bool)
                (label "compressed flag") true comp.A.summary.WS.compressed;
              Alcotest.(check bool)
                (label "fewer clusters") true
                (comp.A.summary.WS.cluster_count
                < comp.A.summary.WS.statements);
              Alcotest.(check (list string))
                (label "identical indexes") (defs_of raw) (defs_of comp);
              Alcotest.(check int)
                (label "identical size") raw.A.outcome.S.size
                comp.A.outcome.S.size)
            [ A.Greedy; A.Greedy_heuristics; A.Top_down_full ])
        [ 1; 4 ])

let differential_fixtures =
  [
    ("tpox", Helpers.shared_catalog, Xia_workload.Tpox.workload ());
    ("xmark", xmark_catalog, Xia_workload.Xmark.workload ());
  ]

let synthetic_differential =
  tc "synthetic: compressed = raw on duplicate-heavy workload" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        dup 4
          (Synthetic.workload ~seed:13 catalog (Cat.table_names catalog) 10)
      in
      List.iter
        (fun domains ->
          let budget = 512 * 1024 in
          let raw =
            A.advise ~domains ~compress:false catalog wl ~budget A.Greedy
          in
          let comp =
            A.advise ~domains ~compress:true catalog wl ~budget A.Greedy
          in
          Alcotest.(check (list string))
            (Printf.sprintf "identical indexes (domains=%d)" domains)
            (defs_of raw) (defs_of comp))
        [ 1; 4 ])

(* ---------- bounded regret on a heterogeneous workload ------------------- *)

(* Random synthetic queries repeat paths with different constants: clusters
   form (shared signatures) but per-member costs differ, so the compressed
   recommendation may legitimately deviate.  Its TRUE estimated cost over
   the SOURCE workload must still land close to the raw recommendation's,
   and must never be worse than recommending nothing. *)
let bounded_regret =
  tc "heterogeneous workload: bounded regret" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed:5 ~alpha:0.9 ~distinct:12 catalog
          (Cat.table_names catalog) 60
      in
      let budget = 256 * 1024 in
      let raw = A.advise ~domains:1 ~compress:false catalog wl ~budget A.Greedy in
      let comp = A.advise ~domains:1 ~compress:true catalog wl ~budget A.Greedy in
      let cost defs = A.estimated_workload_cost catalog wl defs in
      let base = cost [] in
      let raw_cost = cost (A.indexes raw) in
      let comp_cost = cost (A.indexes comp) in
      Alcotest.(check bool) "raw improves" true (raw_cost <= base);
      Alcotest.(check bool) "compressed improves" true (comp_cost <= base);
      Alcotest.(check bool)
        (Printf.sprintf "regret bounded (raw %.1f, compressed %.1f)" raw_cost
           comp_cost)
        true
        (comp_cost <= raw_cost *. 1.25))

(* ---------- clustering determinism --------------------------------------- *)

(* The partition (as a set of member-label sets) must be identical across
   repeated runs and across input permutations; domain counts cannot touch
   it (clustering is a pure sequential pass).  First-occurrence cluster
   ORDER tracks the permuted input, so only the partition is compared. *)
let qcheck_clustering =
  QCheck.Test.make ~count:8
    ~name:"signature clustering is deterministic and permutation-insensitive"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed ~distinct:8 catalog
          (Cat.table_names catalog) 24
      in
      let partition wl =
        let s = WS.compress catalog wl in
        let items = Array.of_list wl in
        WS.members s
        |> List.map (fun members ->
               List.sort compare
                 (List.map (fun i -> items.(i).W.label) members))
        |> List.sort compare
      in
      let rng = Random.State.make [| seed + 17 |] in
      let shuffled =
        wl
        |> List.map (fun it -> (Random.State.bits rng, it))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let p = partition wl in
      p = partition wl && p = partition shuffled)

(* ---------- the shape memo ----------------------------------------------- *)

module Ast = Xia_query.Ast
module Xp = Xia_xpath.Ast

(* The partition per-statement keys give, without the memo: group by kind,
   sorted tables and signature, clusters in first-occurrence order. *)
let reference_partition catalog (wl : W.t) =
  let kind = function
    | Ast.Select _ -> 0 | Ast.Insert _ -> 1 | Ast.Delete _ -> 2 | Ast.Update _ -> 3
  in
  let groups =
    List.fold_left
      (fun groups (i, (it : W.item)) ->
        let s = it.W.statement in
        let key = (kind s, Ast.tables s, WS.signature catalog s) in
        match List.assoc_opt key groups with
        | Some members -> (key, i :: members) :: List.remove_assoc key groups
        | None -> (key, [ i ]) :: groups)
      []
      (List.mapi (fun i it -> (i, it)) wl)
  in
  List.map (fun (_, members) -> List.rev members) groups
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

(* Statement [i]'s own constants: every literal (binding paths, where
   clauses, DML selectors) gets a fresh value; one in 8 also changes kind.
   Updates get a fresh new value and inserts a fresh document. *)
let freshen rng i stmt =
  let lit = function
    | Xp.String_lit _ when Random.State.int rng 8 = 0 -> Xp.Number_lit (float_of_int i)
    | Xp.Number_lit _ when Random.State.int rng 8 = 0 -> Xp.String_lit (string_of_int i)
    | Xp.String_lit s -> Xp.String_lit (Printf.sprintf "%s-%d" s i)
    | Xp.Number_lit x -> Xp.Number_lit (x +. float_of_int (i + 1))
  in
  let rec path p =
    List.map (fun (st : Xp.step) -> { st with predicates = List.map pred st.predicates }) p
  and pred = function
    | Xp.Exists rel -> Xp.Exists (path rel)
    | Xp.Compare (rel, c, l) -> Xp.Compare (path rel, c, lit l)
  in
  match stmt with
  | Ast.Select f ->
      Ast.Select
        {
          f with
          bindings =
            List.map
              (fun (v, (src : Ast.source)) -> (v, { src with path = path src.path }))
              f.bindings;
          where =
            List.map
              (List.map (fun (w : Ast.where_clause) -> { w with predicate = pred w.predicate }))
              f.where;
        }
  | Ast.Insert { table; _ } ->
      let document = Helpers.xml (Printf.sprintf "<Doc n=\"%d\"><v>%d</v></Doc>" i i) in
      Ast.Insert { table; document }
  | Ast.Delete { table; selector } -> Ast.Delete { table; selector = path selector }
  | Ast.Update u ->
      Ast.Update { u with selector = path u.selector; new_value = string_of_int i }

let qcheck_memo_partition =
  QCheck.Test.make ~count:20
    ~name:"memoized compress = per-statement reference partition"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let templates =
        Array.of_list
          (Xia_workload.Tpox.workload_with_updates ()
          @ Synthetic.workload ~seed catalog (Cat.table_names catalog) 12)
      in
      let k = Array.length templates in
      let rng = Random.State.make [| seed |] in
      let wl =
        List.init 300 (fun i ->
            (* Zipf-like: low ranks dominate. *)
            let (t : W.item) = templates.(Random.State.int rng (1 + Random.State.int rng k)) in
            W.item (Printf.sprintf "S%d" i) (freshen rng i t.W.statement))
      in
      WS.members (WS.compress catalog wl) = reference_partition catalog wl)

(* Members of [compress] over statements given as text. *)
let clusters_of texts =
  let catalog = Lazy.force Helpers.shared_catalog in
  WS.members (WS.compress catalog (W.of_strings texts))

let memo_cases =
  let sec where_ = "for $s in SECURITY('SDOC')/Security where " ^ where_ ^ " return $s" in
  [
    tc "shapes differing only in literal values share a cluster" (fun () ->
        Alcotest.(check (list (list int))) "one cluster" [ [ 0; 1; 2 ] ]
          (clusters_of
             [
               sec {|$s/Symbol = "A"|}; sec {|$s/Symbol = "B"|}; sec {|$s/Symbol = "C"|};
             ]));
    tc "literals of different kind at one path do not" (fun () ->
        Alcotest.(check (list (list int))) "two clusters" [ [ 0; 2 ]; [ 1 ] ]
          (clusters_of [ sec {|$s/Yield = "4"|}; sec "$s/Yield = 4"; sec {|$s/Yield = "5"|} ]));
    tc "a step's axis is part of the shape" (fun () ->
        Alcotest.(check (list (list int))) "two clusters" [ [ 0 ]; [ 1 ] ]
          (clusters_of
             [
               sec {|$s/Symbol = "A"|};
               "for $s in SECURITY('SDOC')//Security where $s/Symbol = \"B\" return $s";
             ]));
    tc "swapping the var a where group constrains changes the cluster" (fun () ->
        let q v =
          "for $a in SECURITY('SDOC')/Security, $b in SECURITY('SDOC')/Security/SecInfo \
           where $" ^ v ^ "/Name = \"x\" return $a"
        in
        Alcotest.(check (list (list int))) "two clusters" [ [ 0; 2 ]; [ 1 ] ]
          (clusters_of [ q "a"; q "b"; q "a" ]));
    tc "updates differing only in the new value share a cluster" (fun () ->
        let u v sym =
          Printf.sprintf
            {|update SECURITY set /Security/Price/LastTrade = "%s" where /Security[Symbol="%s"]|}
            v sym
        in
        Alcotest.(check (list (list int))) "one cluster" [ [ 0; 1 ] ]
          (clusters_of [ u "1.5" "A"; u "99" "B" ]));
    tc "inserts of different documents into one table share a cluster" (fun () ->
        Alcotest.(check (list (list int))) "one per table" [ [ 0; 2 ]; [ 1 ] ]
          (clusters_of
             [
               "insert into XORDER <FIXML><Order ID=\"1\"/></FIXML>";
               "insert into SECURITY <Security><Symbol>A</Symbol></Security>";
               "insert into XORDER <Other><x>2</x></Other>";
             ]));
  ]

(* ---------- pruning soundness -------------------------------------------- *)

let config_ids (o : S.outcome) =
  List.map (fun (c : C.t) -> c.C.id) o.S.config

let prune_case (name, catalog, wl) =
  tc (name ^ ": prune on = prune off") (fun () ->
      let catalog = Lazy.force catalog in
      let set = En.candidates catalog wl in
      let budget =
        let ev = B.create ~domains:1 catalog wl in
        (S.all_index ev set).S.size / 2
      in
      List.iter
        (fun (sname, search) ->
          let run prune =
            let ev = B.create ~domains:1 catalog wl in
            search ~prune ev set ~budget
          in
          let on = run true and off = run false in
          Alcotest.(check (list int))
            (sname ^ " config") (config_ids off) (config_ids on);
          Alcotest.(check int) (sname ^ " size") off.S.size on.S.size;
          Alcotest.(check bool)
            (sname ^ " benefit") true
            (Float.equal off.S.benefit on.S.benefit);
          Alcotest.(check int) (sname ^ " off pruned nothing") 0 off.S.pruned)
        [
          ("greedy", fun ~prune ev set ~budget -> S.greedy ~prune ev set ~budget);
          ( "top-down lite",
            fun ~prune ev set ~budget -> S.top_down_lite ~prune ev set ~budget );
          ( "top-down full",
            fun ~prune ev set ~budget -> S.top_down_full ~prune ev set ~budget );
        ])

let prune_fixtures =
  [
    ("tpox", Helpers.shared_catalog, Xia_workload.Tpox.workload ());
    ("xmark", xmark_catalog, Xia_workload.Xmark.workload ());
    ( "tpox+synthetic",
      Helpers.shared_catalog,
      Xia_workload.Tpox.workload ()
      @ Synthetic.workload ~seed:11
          (Lazy.force Helpers.shared_catalog)
          (Cat.table_names (Lazy.force Helpers.shared_catalog))
          8 );
  ]

let pruned_counter_fires =
  tc "pruned counter strictly positive at scale" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed:31 ~distinct:24 catalog
          (Cat.table_names catalog) 2000
      in
      (* Above the auto threshold: compression must kick in unforced. *)
      let r = A.advise ~domains:1 catalog wl ~budget:(256 * 1024) A.Greedy in
      Alcotest.(check bool) "auto-compressed" true r.A.summary.WS.compressed;
      Alcotest.(check int) "statements" 2000 r.A.summary.WS.statements;
      Alcotest.(check bool)
        "clusters bounded by templates" true
        (r.A.summary.WS.cluster_count <= 24);
      Alcotest.(check bool)
        (Printf.sprintf "pruned > 0 (got %d)" r.A.outcome.S.pruned)
        true
        (r.A.outcome.S.pruned > 0))

let summary_tests =
  List.map differential_case differential_fixtures
  @ [ synthetic_differential; bounded_regret ]

(* The eval harness's prune plumbing: quality scores are bit-identical with
   pruning on and off — only per-algorithm optimizer-call counts may
   differ.  Extends the search-level prune twins above to the whole
   regret/validation pipeline (and, via Advisor.run_search, covers the new
   ?prune plumbing on the advisor API). *)
let prune_eval_path =
  tc "eval path: prune on = prune off (regret bit-for-bit)" (fun () ->
      let module Eval = Xia_eval.Eval in
      let spec =
        List.filter (fun s -> s.Eval.s_name = "tpox-small") Eval.default_specs
      in
      let run prune = Eval.run ~domains:1 ~prune ~small:true spec in
      let on = run true and off = run false in
      List.iter2
        (fun (a : Eval.case_result) (b : Eval.case_result) ->
          Alcotest.(check string) "case" a.Eval.r_case b.Eval.r_case;
          Alcotest.(check bool)
            "spearman" true
            (Float.equal a.Eval.r_spearman b.Eval.r_spearman);
          List.iter2
            (fun (x : Eval.entry) (y : Eval.entry) ->
              let label =
                Printf.sprintf "%s/%.2f/%s" x.Eval.e_case x.Eval.e_frac
                  x.Eval.e_algorithm
              in
              Alcotest.(check string) (label ^ " alg") x.Eval.e_algorithm
                y.Eval.e_algorithm;
              Alcotest.(check bool)
                (label ^ " regret") true
                (Float.equal x.Eval.e_regret y.Eval.e_regret);
              Alcotest.(check bool)
                (label ^ " benefit") true
                (Float.equal x.Eval.e_benefit y.Eval.e_benefit);
              Alcotest.(check int) (label ^ " rank") x.Eval.e_rank y.Eval.e_rank)
            a.Eval.r_entries b.Eval.r_entries)
        on off)

(* ?prune on the one-shot advisor API: pruned and unpruned twins recommend
   identical indexes, and prune:false really probes everything. *)
let prune_advise_api =
  tc "Advisor.advise ?prune twins agree" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl = Xia_workload.Tpox.workload () in
      let budget = 256 * 1024 in
      List.iter
        (fun alg ->
          let run prune =
            A.advise ~prune ~domains:1 ~compress:false catalog wl ~budget alg
          in
          let on = run true and off = run false in
          Alcotest.(check (list string))
            (A.algorithm_name alg ^ " indexes") (defs_of off) (defs_of on);
          Alcotest.(check int)
            (A.algorithm_name alg ^ " off pruned nothing") 0
            off.A.outcome.S.pruned)
        [ A.Greedy; A.Top_down_lite; A.Top_down_full ])

let prune_tests =
  List.map prune_case prune_fixtures
  @ [ pruned_counter_fires; prune_eval_path; prune_advise_api ]

let suites =
  [
    ("summary.differential", summary_tests);
    ("summary.pruning", prune_tests);
    ("summary.memo", memo_cases);
    Helpers.qsuite "summary.qcheck" [ qcheck_clustering; qcheck_memo_partition ];
  ]
