(* The R-series (domain races) and N002 (order-fragile parallel float
   reduction), run over the cross-unit call graph and the [Effects]
   summaries computed on it.

   R001  module-level or escaping mutable state reached from a parallel
         task: a closure (or named function) passed to [Par.map] /
         [Par.map_list] / [Par.iter] / [Domain.spawn] that captures a raw
         mutable local ([ref], [Hashtbl.create], ...), mutates a field of a
         captured value, or — transitively, through helpers in any unit —
         references raw module-toplevel mutable state.  The transitive core
         is [Effects.race_witnesses]: the effect pass records every raw-
         global access with its call chain, refuses to propagate through a
         lock-disciplined binding (a body taking [Mutex.lock], or
         [@lint.allow "R001"]), and this check emits the unsuppressed
         witnesses of every task that escapes to another domain.  Wrapped
         state (Atomic, Mutex, Domain.DLS, Interner.Cache) never classifies
         as raw; a [lazy] cell does, as concurrent forcing raises.
   R002  inconsistent mutex acquisition order: [Mutex.lock b] while [a] is
         statically held, when somewhere else [a] is locked while [b] is
         held (deadlock by lock-order inversion), including locks taken by
         callees resolved through the graph.  Mutexes are identified
         nominally by the symbolic path of the lock expression ([pool.lock],
         [shard.lock], ...); re-locking the same symbol is reported as a
         self-deadlock (stdlib mutexes are not reentrant).
   R003  non-atomic read-modify-write: [Atomic.set x (... Atomic.get x ...)]
         — the window between get and set loses concurrent updates; use
         [Atomic.fetch_and_add]/[Atomic.incr] or a [compare_and_set] retry
         loop.  Only the syntactically nested shape is matched: a get
         let-bound earlier (the save/restore idiom) is not a hit.
   N002  a parallel fan-out combining float work without [Par.sum_list]:
         either the escaping task accumulates into shared state
         ([t := !t +. x] — racy and order-varying; witness list
         [Effects.float_accumulations], which propagates even through lock
         discipline because a mutex serializes the updates without fixing
         their order), or the fan-out host folds float results with a bare
         [List.fold_left]/[Array.fold_left] whose grouping the scheduler
         picks.

   All checks honor [@lint.allow "ID"] attribute suppression at the site
   the finding anchors to, plus allow-file entries downstream. *)

open Parsetree

let allow id attrs = List.mem id (Suppress.allow_ids attrs)

(* The parallel fan-out entry points.  An argument in function position of
   one of these escapes to another domain. *)
let par_entries =
  [
    ([ "Par"; "map" ], "Par.map");
    ([ "Par"; "map_list" ], "Par.map_list");
    ([ "Par"; "iter" ], "Par.iter");
    ([ "Domain"; "spawn" ], "Domain.spawn");
  ]

let par_entry_of_path path =
  List.find_map
    (fun (suffix, name) -> if Effects.has_suffix ~suffix path then Some name else None)
    par_entries

(* Symbolic identity of a lock/atomic expression: dotted ident or field
   path ("pool.lock", "t.shards.lock"); [None] when the expression has no
   stable name (array cells, call results). *)
let rec sym (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> Some (String.concat "." (Longident.flatten lid.txt))
  | Pexp_field (b, lid) -> (
      match sym b with
      | Some s -> (
          match List.rev (Longident.flatten lid.txt) with
          | f :: _ -> Some (s ^ "." ^ f)
          | [] -> None)
      | None -> None)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> sym e
  | _ -> None

(* ---------------------------------------------------------------- R001 -- *)

type r001_ctx = {
  graph : Callgraph.t;
  eff : Effects.t;
  findings : Finding.t list ref;
}

let r001_capture_message entry name kind =
  Printf.sprintf
    "closure passed to %s captures mutable local %s (%s): shared across domains \
     without synchronization; use Atomic/Mutex or return per-item results"
    entry name kind

let r001_global_message entry name kind path trail =
  let via =
    match trail with [] -> "" | t -> Printf.sprintf " via %s" (String.concat " -> " t)
  in
  Printf.sprintf
    "parallel task passed to %s reaches module-toplevel mutable state %s (%s, %s)%s: \
     unsynchronized cross-domain access; wrap in Atomic/Mutex/Domain.DLS"
    entry name kind path via

let r001_setfield_message entry field =
  Printf.sprintf
    "closure passed to %s writes mutable field %s of a captured value: \
     unsynchronized cross-domain write; guard with a Mutex or make it Atomic"
    entry field

let emit ctx ~id ~message loc =
  ctx.findings := Finding.of_location ~id ~message loc :: !(ctx.findings)

let witness_key (w : Effects.race_witness) =
  let p = w.w_loc.Location.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum, w.w_global)

(* A named function that escapes to another domain: its summary already
   carries every raw-global access it can transitively reach, each with the
   call chain from the task down to the access.  [visited] is global — one
   finding per racy global reference site is enough no matter how many
   fan-out sites reach it. *)
let emit_escaping_witnesses ctx ~visited ~entry (tgt : Callgraph.node) =
  List.iter
    (fun (w : Effects.race_witness) ->
      let k = witness_key w in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        if not w.Effects.w_suppressed then
          emit ctx ~id:"R001"
            ~message:(r001_global_message entry w.w_global w.w_kind w.w_path w.w_via)
            w.w_loc
      end)
    (Effects.race_witnesses ctx.eff tgt)

(* Scan a literal closure passed to a fan-out point: the capture checks plus
   the witness query for every helper the closure calls. *)
let scan_closure ctx ~visited ~entry ~locals ~host (c : expression) =
  let bound = Effects.bound_vars c in
  let stack = ref [] in
  let active id = List.exists (List.mem id) !stack in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_ident lid -> (
              let path = Longident.flatten lid.txt in
              match path with
              | [ x ] when Hashtbl.mem bound x -> ()
              | [ x ] when Hashtbl.mem locals x ->
                  if not (active "R001") then
                    emit ctx ~id:"R001"
                      ~message:(r001_capture_message entry x (Hashtbl.find locals x))
                      e.pexp_loc
              | _ ->
                  List.iter
                    (fun (tgt : Callgraph.node) ->
                      match Effects.raw_global ctx.eff tgt with
                      | Some kind ->
                          if not (active "R001") then
                            emit ctx ~id:"R001"
                              ~message:(r001_global_message entry tgt.name kind tgt.u.path [])
                              e.pexp_loc
                      | None -> emit_escaping_witnesses ctx ~visited ~entry tgt)
                    (Callgraph.resolve ctx.graph host path))
          | Pexp_setfield (base, flid, _) -> (
              (* Any [x.f <- e] is a mutable-field write by construction; the
                 only question is whether [x] is the closure's own. *)
              match List.rev (Longident.flatten flid.txt) with
              | f :: _ ->
                  let base_bound =
                    match base.pexp_desc with
                    | Pexp_ident { txt = Longident.Lident x; _ } -> Hashtbl.mem bound x
                    | _ -> false
                  in
                  if (not base_bound) && not (active "R001") then
                    emit ctx ~id:"R001" ~message:(r001_setfield_message entry f)
                      e.pexp_loc
              | [] -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack)
    }
  in
  it.expr it c

(* The function argument of a fan-out call: the first unlabeled argument
   ([Par.map ~domains f arr] and [Domain.spawn f] both fit). *)
let task_argument args =
  List.find_map
    (fun (label, (a : expression)) ->
      match label with Asttypes.Nolabel -> Some a | _ -> None)
    args

let rec is_closure (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> is_closure e
  | _ -> false

let rec head_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> Some (Longident.flatten lid.txt)
  | Pexp_apply (f, _) -> head_ident f
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> head_ident e
  | _ -> None

(* ---------------------------------------------------------------- N002 -- *)

let n002_acc_message entry what trail =
  let via =
    match trail with [] -> "" | t -> Printf.sprintf " via %s" (String.concat " -> " t)
  in
  Printf.sprintf
    "parallel task passed to %s performs %s%s: the accumulation order varies \
     across domains, so the sum is not reproducible; return per-task results \
     and combine with Par.sum_list"
    entry what via

let n002_fold_message what =
  Printf.sprintf
    "%s next to a parallel fan-out: float addition is not associative and the \
     fold order is a scheduling accident away from changing; combine the \
     fan-out's results with Par.sum_list (fixed sequential reduction)"
    what

let acc_key (a : Effects.acc_witness) =
  let p = a.a_loc.Location.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum, "")

let emit_escaping_accs ctx ~visited ~entry (tgt : Callgraph.node) =
  List.iter
    (fun (a : Effects.acc_witness) ->
      let k = acc_key a in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        if not a.Effects.a_suppressed then
          emit ctx ~id:"N002" ~message:(n002_acc_message entry a.a_what a.a_via) a.a_loc
      end)
    (Effects.float_accumulations ctx.eff tgt)

(* Float accumulation inside a literal task closure: shared targets only —
   names the closure itself binds are per-task. *)
let scan_closure_accs ctx ~entry (c : expression) =
  let bound = Effects.bound_vars c in
  List.iter
    (fun (loc, what, suppressed) ->
      if not suppressed then
        emit ctx ~id:"N002" ~message:(n002_acc_message entry what []) loc)
    (Effects.float_acc_sites ~exempt:(Hashtbl.mem bound) c)

(* ------------------------------------------- fan-out site walk (R001+N002) -- *)

(* Walk one node's body looking for fan-out calls; each task found feeds
   both the race check and the accumulation half of N002.  Afterwards, the
   fold half: a binding that fans out, folds floats, and never references
   the sanctioned reduction. *)
let check_fanout_node ctx ~visited ~acc_visited (n : Callgraph.node) =
  let locals = Effects.raw_locals ctx.eff n in
  let stack = ref [ Suppress.allow_ids n.attrs ] in
  let active id = List.exists (List.mem id) !stack in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> (
              match
                par_entry_of_path
                  (Callgraph.expand ctx.graph n.u (Longident.flatten lid.txt))
              with
              | Some entry -> (
                  match task_argument args with
                  | Some task when is_closure task ->
                      if not (active "R001") then
                        scan_closure ctx ~visited ~entry ~locals ~host:n.u task;
                      if not (active "N002") then scan_closure_accs ctx ~entry task
                  | Some task -> (
                      match head_ident task with
                      | Some path ->
                          List.iter
                            (fun (tgt : Callgraph.node) ->
                              if not (active "R001") then
                                emit_escaping_witnesses ctx ~visited ~entry tgt;
                              if not (active "N002") then
                                emit_escaping_accs ctx ~visited:acc_visited ~entry tgt)
                            (Callgraph.resolve ctx.graph n.u path)
                      | None -> ())
                  | None -> ())
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack);
    }
  in
  it.expr it n.expr;
  if
    Effects.has_par_fanout ctx.eff n
    && (not (Effects.uses_sum_list ctx.eff n))
    && not (allow "N002" n.attrs)
  then
    List.iter
      (fun (s : Effects.site) ->
        if not s.Effects.s_suppressed then
          emit ctx ~id:"N002" ~message:(n002_fold_message s.s_what) s.s_loc)
      (Effects.float_folds ctx.eff n)

(* ---------------------------------------------------------------- R002 -- *)

type lock_site = { loc : Location.t; suppressed : bool; via : string option }

(* Direct lock symbols of a node body (for the interprocedural step). *)
let direct_locks (n : Callgraph.node) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
            when Effects.has_suffix ~suffix:[ "Mutex"; "lock" ] (Longident.flatten lid.txt)
            -> (
              match task_argument args with
              | Some m -> ( match sym m with Some s -> acc := s :: !acc | None -> ())
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it n.expr;
  List.sort_uniq String.compare !acc

let transitive_locks graph memo (n : Callgraph.node) =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec visit (n : Callgraph.node) =
    let k = Callgraph.key n in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      let direct =
        match Hashtbl.find_opt memo k with
        | Some d -> d
        | None ->
            let d = direct_locks n in
            Hashtbl.replace memo k d;
            d
      in
      acc := direct @ !acc;
      List.iter visit (Callgraph.succs graph n)
    end
  in
  visit n;
  List.sort_uniq String.compare !acc

let r002_inversion_message b a (rev : lock_site) =
  let p = rev.loc.Location.loc_start in
  Printf.sprintf
    "Mutex.lock on %s while %s is held, but the opposite order occurs at %s:%d: \
     inconsistent acquisition order can deadlock; pick one global order"
    b a p.Lexing.pos_fname p.Lexing.pos_lnum

let r002_self_message a =
  Printf.sprintf
    "Mutex.lock on %s while %s is already held: stdlib mutexes are not reentrant — \
     this self-deadlocks"
    a a

(* [fun () -> body] (or any one-argument literal fun) viewed as the body it
   will run — used to walk [Fun.protect] thunks in-line below. *)
let thunk_body (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (Nolabel, None, _, b) -> Some b
  | _ -> None

let check_r002 graph =
  let pairs : (string * string, lock_site list) Hashtbl.t = Hashtbl.create 32 in
  let add_pair a b site =
    Hashtbl.replace pairs (a, b)
      (Option.value ~default:[] (Hashtbl.find_opt pairs (a, b)) @ [ site ])
  in
  let lock_memo = Hashtbl.create 64 in
  List.iter
    (fun (n : Callgraph.node) ->
      let held = ref [] in
      let stack = ref [ Suppress.allow_ids n.attrs ] in
      let active id = List.exists (List.mem id) !stack in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              stack := Suppress.allow_ids e.pexp_attributes :: !stack;
              (match e.pexp_desc with
              | Pexp_fun _ | Pexp_function _ ->
                  (* A closure body runs later, under whatever locks its
                     caller then holds — not the ones held where it is
                     defined. *)
                  let saved = !held in
                  held := [];
                  Fun.protect
                    ~finally:(fun () -> held := saved)
                    (fun () -> Ast_iterator.default_iterator.expr it e)
              | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
                when Effects.has_suffix ~suffix:[ "Fun"; "protect" ]
                       (Longident.flatten lid.txt)
                     && List.exists
                          (function
                            | Asttypes.Labelled "finally", _ -> true | _ -> false)
                          args ->
                  (* Fun.protect runs its body and then its finalizer at the
                     *current* lock level, so literal thunks are walked
                     in-line rather than as deferred closures — otherwise a
                     [Mutex.unlock] in [~finally] would never discharge the
                     lock acquired just above it. *)
                  List.iter
                    (fun ((l : Asttypes.arg_label), a) ->
                      match l with
                      | Labelled "finally" -> ()
                      | _ -> (
                          match thunk_body a with
                          | Some b -> it.expr it b
                          | None -> it.expr it a))
                    args;
                  List.iter
                    (fun ((l : Asttypes.arg_label), a) ->
                      match l with
                      | Labelled "finally" -> (
                          match thunk_body a with
                          | Some b -> it.expr it b
                          | None -> it.expr it a)
                      | _ -> ())
                    args
              | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> (
                  let path = Longident.flatten lid.txt in
                  (if Effects.has_suffix ~suffix:[ "Mutex"; "lock" ] path then
                     match Option.bind (task_argument args) sym with
                     | Some s ->
                         List.iter
                           (fun h ->
                             add_pair h s
                               { loc = e.pexp_loc; suppressed = active "R002"; via = None })
                           !held;
                         held := !held @ [ s ]
                     | None -> ()
                   else if Effects.has_suffix ~suffix:[ "Mutex"; "unlock" ] path then
                     match Option.bind (task_argument args) sym with
                     | Some s -> held := List.filter (fun h -> h <> s) !held
                     | None -> ()
                   else if !held <> [] then
                     List.iter
                       (fun (tgt : Callgraph.node) ->
                         List.iter
                           (fun l ->
                             List.iter
                               (fun h ->
                                 add_pair h l
                                   {
                                     loc = e.pexp_loc;
                                     suppressed = active "R002";
                                     via = Some tgt.name;
                                   })
                               !held)
                           (transitive_locks graph lock_memo tgt))
                       (Callgraph.resolve graph n.u path));
                  Ast_iterator.default_iterator.expr it e)
              | _ -> Ast_iterator.default_iterator.expr it e);
              stack := List.tl !stack)
        }
      in
      it.expr it n.expr)
    (Callgraph.nodes graph);
  let first_site sites =
    List.sort
      (fun (a : lock_site) b ->
        let pa = a.loc.Location.loc_start and pb = b.loc.Location.loc_start in
        compare
          (pa.Lexing.pos_fname, pa.Lexing.pos_lnum, pa.Lexing.pos_cnum)
          (pb.Lexing.pos_fname, pb.Lexing.pos_lnum, pb.Lexing.pos_cnum))
      sites
    |> List.hd
  in
  Hashtbl.fold
    (fun (a, b) sites acc ->
      if a = b then
        List.fold_left
          (fun acc (s : lock_site) ->
            if s.suppressed then acc
            else Finding.of_location ~id:"R002" ~message:(r002_self_message a) s.loc :: acc)
          acc sites
      else
        match Hashtbl.find_opt pairs (b, a) with
        | Some rev_sites ->
            let rev = first_site rev_sites in
            List.fold_left
              (fun acc (s : lock_site) ->
                if s.suppressed then acc
                else
                  Finding.of_location ~id:"R002" ~message:(r002_inversion_message b a rev)
                    s.loc
                  :: acc)
              acc sites
        | None -> acc)
    pairs []

(* ---------------------------------------------------------------- R003 -- *)

let r003_message target =
  Printf.sprintf
    "non-atomic read-modify-write: Atomic.set of %s computed from Atomic.get of \
     the same atomic loses concurrent updates; use Atomic.fetch_and_add/incr or \
     a compare_and_set retry loop"
    target

let contains_get_of (target : string) (e : expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
            when Effects.has_suffix ~suffix:[ "Atomic"; "get" ] (Longident.flatten lid.txt)
            -> (
              match Option.bind (task_argument args) sym with
              | Some s when s = target -> found := true
              | _ -> ())
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let check_r003 structure =
  let findings = ref [] in
  let stack = ref [] in
  let active id = List.exists (List.mem id) !stack in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
            when Effects.has_suffix ~suffix:[ "Atomic"; "set" ] (Longident.flatten lid.txt)
            -> (
              match args with
              | (Asttypes.Nolabel, target) :: (Asttypes.Nolabel, value) :: _ -> (
                  match sym target with
                  | Some s when contains_get_of s value ->
                      if not (active "R003") then
                        findings :=
                          Finding.of_location ~id:"R003" ~message:(r003_message s)
                            e.pexp_loc
                          :: !findings
                  | _ -> ())
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack);
      value_binding =
        (fun it vb ->
          stack := Suppress.allow_ids vb.pvb_attributes :: !stack;
          Ast_iterator.default_iterator.value_binding it vb;
          stack := List.tl !stack);
    }
  in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------- driver -- *)

let check graph eff =
  let ctx = { graph; eff; findings = ref [] } in
  let visited = Hashtbl.create 64 in
  let acc_visited = Hashtbl.create 16 in
  List.iter (check_fanout_node ctx ~visited ~acc_visited) (Callgraph.nodes graph);
  let r002 = check_r002 graph in
  let r003 =
    List.concat_map
      (fun (u : Callgraph.unit_info) -> check_r003 u.structure)
      (Callgraph.units graph)
  in
  !(ctx.findings) @ r002 @ r003
