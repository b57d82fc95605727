(* The company-rw workload: the paper's company database in the CDB1
   layout (employment as the EMP.edno foreign key), with its XNF views
   ALL-DEPS-ORG, EXT-ALL-DEPS-ORG and ORG-UNIT.

   One step, for one seeded department d, does four operations:
     1. EXECUTE of one of the three views, prepared with
        WHERE Xdept SUCH THAT dno = ?, rotating over the views;
     2. a deferred manipulation batch closed by one save: 3 salary
        updates, one link disconnect and one link connect. The link is
        membership (EMPPROJ) on the two views that carry it and
        empproperty (EMPSKILL) on ORG-UNIT, which has no membership;
     3. a hire batch closed by its own save: insert an employee, then
        connect it to d through employment;
     4. a SQL aggregate read of d's employees through Db.query.
   Between operations the application navigates the delivered CO with
   cursors to find the tuples it manipulates.

   A shadow model of salaries, link rows and employees per department is
   read from the base tables once, and updated only by operations that
   report success. Every delivered CO and every SQL read is compared with
   it, so each fetch also checks the writes saved in the step before.

   The hire fails on every step: Udi.save writes coalesced updates before
   it applies queued inserts, so the FK update of the inserted employee
   is written while its rowid is still -1 and save raises
   "component xemp is not updatable". It is counted as failed; the model
   skips it, so the checks hold whether or not that is mended. *)

open Relational
open Xnf
open Common

type view = { v_plan : string; v_view : string; v_link : string }

let views =
  [| { v_plan = "adorg"; v_view = "ALL-DEPS-ORG"; v_link = "membership" };
     { v_plan = "extorg"; v_view = "EXT-ALL-DEPS-ORG"; v_link = "membership" };
     { v_plan = "orgunit"; v_view = "ORG-UNIT"; v_link = "empproperty" } |]

let view_query v = Printf.sprintf "OUT OF %s WHERE Xdept SUCH THAT dno = ? TAKE *" v.v_view
let root_only_query = "OUT OF Xdept AS (SELECT * FROM dept WHERE dno = ?) TAKE *"
let sql_text d = Printf.sprintf "SELECT COUNT(*), SUM(sal) FROM emp WHERE edno = %d" d

let scale cfg =
  if cfg.small then
    { Workload.Company.n_depts = 20; emps_per_dept = 10; projs_per_dept = 3; n_skills = 20;
      skills_per_emp = 3; skills_per_proj = 2; emps_per_proj = 4 }
  else
    { Workload.Company.n_depts = 400; emps_per_dept = 20; projs_per_dept = 5; n_skills = 100;
      skills_per_emp = 3; skills_per_proj = 2; emps_per_proj = 4 }

(* ---- the shadow model ---- *)

type model = {
  sal : (int, int) Hashtbl.t;  (** eno -> salary *)
  emps_of : (int, int list) Hashtbl.t;  (** dno -> enos *)
  projs_of : (int, int list) Hashtbl.t;  (** dno -> pnos *)
  mgr : (int, int) Hashtbl.t;  (** pno -> pmgrno *)
  managed : (int, int list) Hashtbl.t;  (** eno -> pnos it manages *)
  members : (int, (int * int) list) Hashtbl.t;  (** pno -> EMPPROJ (eno, percentage) rows *)
  eskills : (int, int list) Hashtbl.t;  (** eno -> EMPSKILL sno rows *)
  pskills : (int, int list) Hashtbl.t;  (** pno -> PROJSKILL sno rows *)
}

let get h k = Option.value ~default:[] (Hashtbl.find_opt h k)
let push h k v = Hashtbl.replace h k (v :: get h k)

let int_of = function Value.Int v -> v | _ -> fail "non-integer key in a base row"

let read_model db =
  let tbl name = Catalog.table (Db.catalog db) name in
  let each name cols f =
    let t = tbl name in
    let idx = List.map (Schema.find (Table.schema t)) cols in
    Table.iter (fun _ row -> f (List.map (fun i -> int_of row.(i)) idx)) t
  in
  let md =
    { sal = Hashtbl.create 1024; emps_of = Hashtbl.create 64; projs_of = Hashtbl.create 64;
      mgr = Hashtbl.create 256; managed = Hashtbl.create 256; members = Hashtbl.create 256;
      eskills = Hashtbl.create 1024; pskills = Hashtbl.create 256 }
  in
  each "emp" [ "eno"; "sal"; "edno" ] (function
    | [ e; s; d ] -> Hashtbl.replace md.sal e s; push md.emps_of d e
    | _ -> ());
  each "proj" [ "pno"; "pdno"; "pmgrno" ] (function
    | [ p; d; mg ] -> push md.projs_of d p; Hashtbl.replace md.mgr p mg; push md.managed mg p
    | _ -> ());
  each "empproj" [ "epeno"; "eppno"; "percentage" ] (function
    | [ e; p; pct ] -> push md.members p (e, pct)
    | _ -> ());
  each "empskill" [ "eseno"; "essno" ] (function [ e; s ] -> push md.eskills e s | _ -> ());
  each "projskill" [ "pspno"; "pssno" ] (function [ p; s ] -> push md.pskills p s | _ -> ());
  md

(* the CO the model expects for view [v] restricted to department [d]:
   sorted keys per node, (eno, salary) for Xemp, and sorted (parent key,
   child key, attribute) per relationship *)
type co = { c_nodes : (string * int list) list; c_emps : (int * int) list;
            c_edges : (string * (int * int * int) list) list }

let sort l = List.sort compare l
let uniq l = List.sort_uniq compare l

let expected md v d =
  let own_e = sort (get md.emps_of d) and own_p = sort (get md.projs_of d) in
  let members_of ps =
    List.concat_map (fun p -> List.map (fun (e, pct) -> (p, e, pct)) (get md.members p)) ps
  in
  let emps, projs =
    match v.v_view with
    | "ALL-DEPS-ORG" -> (uniq (own_e @ List.map (fun (_, e, _) -> e) (members_of own_p)), own_p)
    | "EXT-ALL-DEPS-ORG" ->
      (* reachability to a fixpoint: members of reached projects, projects
         managed by reached employees *)
      let rec fix es ps =
        let es' = uniq (es @ List.map (fun (_, e, _) -> e) (members_of ps)) in
        let ps' = uniq (ps @ List.concat_map (get md.managed) es') in
        if es' = es && ps' = ps then (es, ps) else fix es' ps'
      in
      fix (uniq own_e) (uniq own_p)
    | _ -> (uniq own_e, uniq own_p)
  in
  let base =
    [ ("employment", sort (List.map (fun e -> (d, e, 0)) own_e));
      ("ownership", sort (List.map (fun p -> (d, p, 0)) own_p)) ]
  in
  let nodes, edges =
    match v.v_view with
    | "ORG-UNIT" ->
      let es = List.concat_map (fun e -> List.map (fun s -> (e, s, 0)) (get md.eskills e)) emps in
      let ps = List.concat_map (fun p -> List.map (fun s -> (p, s, 0)) (get md.pskills p)) projs in
      let skills = uniq (List.map (fun (_, s, _) -> s) (es @ ps)) in
      ([ ("xskill", skills) ], base @ [ ("empproperty", sort es); ("projproperty", sort ps) ])
    | "EXT-ALL-DEPS-ORG" ->
      let pm =
        List.filter_map
          (fun p ->
            let mg = Hashtbl.find md.mgr p in
            if List.mem mg emps then Some (mg, p, 0) else None)
          projs
      in
      ([], base @ [ ("membership", sort (members_of projs)); ("projmanagement", sort pm) ])
    | _ -> ([], base @ [ ("membership", sort (members_of projs)) ])
  in
  { c_nodes = [ ("xdept", [ d ]); ("xproj", projs) ] @ nodes;
    c_emps = List.map (fun e -> (e, Hashtbl.find md.sal e)) emps;
    c_edges = edges }

(* ---- reading the delivered CO ---- *)

let col_int t i = match Cache.col t i with Value.Int v -> v | _ -> fail "non-integer key in the CO"

let key_col = function "xdept" -> "dno" | "xemp" -> "eno" | "xproj" -> "pno" | _ -> "sno"

let node_keys cache node =
  let ni = Cache.node cache node in
  let i = Schema.find ni.Cache.ni_schema (key_col node) in
  sort (List.map (fun t -> col_int t i) (Cache.live_tuples ni))

let delivered_emps cache =
  let ni = Cache.node cache "xemp" in
  let e = Schema.find ni.Cache.ni_schema "eno" and s = Schema.find ni.Cache.ni_schema "sal" in
  sort (List.map (fun t -> (col_int t e, col_int t s)) (Cache.live_tuples ni))

let edge_triples cache edge =
  let ei = Cache.edge cache edge in
  let pn = ei.Cache.ei_parent_node and cn = ei.Cache.ei_child_node in
  let pk = Schema.find pn.Cache.ni_schema (key_col pn.Cache.ni_name)
  and ck = Schema.find cn.Cache.ni_schema (key_col cn.Cache.ni_name) in
  sort
    (List.map
       (fun (c : Cache.conn) ->
         let attr =
           match Cache.conn_attrs c with [| Value.Int a |] -> a | [||] -> 0 | _ -> fail "bad attribute"
         in
         (col_int (Cache.tuple pn c.Cache.cn_parent) pk, col_int (Cache.tuple cn c.Cache.cn_child) ck, attr))
       (Cache.conns_live ei))

let check_co md v d cache =
  let want = expected md v d in
  List.iter
    (fun (node, keys) ->
      if node_keys cache node <> keys then
        fail "%s dept %d: component %s differs from the model" v.v_view d node)
    want.c_nodes;
  if delivered_emps cache <> want.c_emps then
    fail "%s dept %d: Xemp (eno, sal) differs from the model" v.v_view d;
  List.iter
    (fun (edge, triples) ->
      if edge_triples cache edge <> triples then
        fail "%s dept %d: relationship %s differs from the model" v.v_view d edge)
    want.c_edges

let check_sql md d rows =
  let emps = get md.emps_of d in
  let count = List.length emps and total = List.fold_left (fun a e -> a + Hashtbl.find md.sal e) 0 emps in
  let num = function Value.Int v -> v | Value.Float f -> int_of_float f | Value.Null -> 0 | _ -> -1 in
  match rows with
  | [ [| c; s |] ] when num c = count && num s = total -> ()
  | _ -> fail "SQL read of dept %d differs from the model (%d employees, salaries %d)" d count total

(* ---- the step's decisions, drawn from the model before the fetch ---- *)

type plan = {
  d : int;
  v : view;
  raises : (int * int) list;  (** (eno, new salary) *)
  cut : int * int;  (** link to disconnect: (parent key, child key) *)
  add : int * int * int;  (** link to connect: (parent key, child key, percentage) *)
}

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let draw rng md ~n_depts i =
  let d = Random.State.int rng n_depts and v = views.(i mod Array.length views) in
  let own_e = sort (get md.emps_of d) in
  let rec three acc =
    if List.length acc = 3 then acc
    else begin
      let e = pick rng own_e in
      if List.mem_assoc e acc then three acc else three ((e, 500 + Random.State.int rng 4501) :: acc)
    end
  in
  let raises = List.rev (three []) in
  let cut, add =
    if v.v_link = "membership" then begin
      let own_p = sort (get md.projs_of d) in
      let links =
        uniq (List.concat_map (fun p -> List.map (fun (e, _) -> (p, e)) (get md.members p)) own_p)
      in
      let cut = pick rng links in
      let free =
        List.concat_map (fun p -> List.map (fun e -> (p, e)) own_e) own_p
        |> List.filter (fun l -> not (List.mem l links))
      in
      let p, e = pick rng free in
      (cut, (p, e, 10 + Random.State.int rng 91))
    end
    else begin
      let links = uniq (List.concat_map (fun e -> List.map (fun s -> (e, s)) (get md.eskills e)) own_e) in
      let ((_, cut_s) as cut) = pick rng links in
      let want = expected md v d in
      let skills = List.filter (fun s -> s <> cut_s) (List.assoc "xskill" want.c_nodes) in
      let free =
        List.concat_map (fun e -> List.map (fun s -> (e, s)) skills) own_e
        |> List.filter (fun l -> not (List.mem l links))
      in
      let e, s = pick rng free in
      (cut, (e, s, 0))
    end
  in
  { d; v; raises; cut; add }

(* the model after a successful manipulation batch *)
let apply_batch md (p : plan) ~skip_first =
  List.iteri (fun k (e, s) -> if not (skip_first && k = 0) then Hashtbl.replace md.sal e s) p.raises;
  let cp, cc = p.cut and ap, ac, pct = p.add in
  if p.v.v_link = "membership" then begin
    Hashtbl.replace md.members cp (List.filter (fun (e, _) -> e <> cc) (get md.members cp));
    push md.members ap (ac, pct)
  end
  else begin
    Hashtbl.replace md.eskills cp (List.filter (fun s -> s <> cc) (get md.eskills cp));
    push md.eskills ap ac
  end

(* ---- navigation: find the positions the batch manipulates ---- *)

type calls = {
  next : Cursor.t -> Cache.tuple option;
  row : Cache.tuple -> Row.t;
  open_ind : Cache.t -> string -> Cursor.t;
  open_dep : Cursor.t -> string -> Cursor.t;
  update : Udi.t -> node:string -> pos:int -> (string * Value.t) list -> unit;
  connect : Udi.t -> edge:string -> parent:int -> child:int -> ?attrs:(string * Value.t) list -> unit -> unit;
  disconnect : Udi.t -> edge:string -> parent:int -> child:int -> unit;
  insert : Udi.t -> node:string -> Row.t -> int;
  save : Udi.t -> unit;
  hire_save : Udi.t -> unit;
  adjacency : Cache.t -> unit;  (** traced: build every edge's adjacency up front *)
}

let plain =
  { next = Cursor.next; row = Cache.row; open_ind = (fun c n -> Cursor.open_independent c n);
    open_dep = (fun p e -> Cursor.open_dependent ~parent:p (Cursor.via e));
    update = Udi.update; connect = Udi.connect; disconnect = Udi.disconnect; insert = Udi.insert;
    save = Udi.save; hire_save = Udi.save; adjacency = ignore }

let a_update = Probe.acc "udi.update"
let a_connect = Probe.acc "udi.connect"
let a_disconnect = Probe.acc "udi.disconnect"
let a_insert = Probe.acc "udi.insert"
let a_save = Probe.acc "udi.save"
let a_hire_save = Probe.acc "udi.hire_save"

let traced =
  { next = Layers.next; row = Layers.row; open_ind = Layers.open_independent;
    open_dep = Layers.open_dependent;
    update = (fun s ~node ~pos u -> Probe.time a_update (fun () -> Udi.update s ~node ~pos u));
    connect =
      (fun s ~edge ~parent ~child ?attrs () ->
        Probe.time a_connect (fun () -> Udi.connect s ~edge ~parent ~child ?attrs ()));
    disconnect =
      (fun s ~edge ~parent ~child ->
        Probe.time a_disconnect (fun () -> Udi.disconnect s ~edge ~parent ~child));
    insert = (fun s ~node r -> Probe.time a_insert (fun () -> Udi.insert s ~node r));
    save = (fun s -> Probe.time a_save (fun () -> Udi.save s));
    hire_save = (fun s -> Probe.time a_hire_save (fun () -> Udi.save s));
    adjacency = Layers.adjacency }

let first_int r = match r.(0) with Value.Int v -> v | _ -> -1

(* dept position, and key -> position maps for the employees, projects
   and skills reached through the relationships the batch uses *)
let navigate k cache v =
  let emp_pos = Hashtbl.create 32 and proj_pos = Hashtbl.create 8 and skill_pos = Hashtbl.create 32 in
  let rec each c f = match k.next c with Some t -> f t; each c f | None -> () in
  k.adjacency cache;
  let dc = k.open_ind cache "xdept" in
  let dpos = match k.next dc with Some t -> ignore (k.row t); t.Cache.t_pos | None -> fail "no Xdept tuple" in
  let ec = k.open_dep dc "employment" and pc = k.open_dep dc "ownership" in
  let sc = if v.v_link = "empproperty" then Some (k.open_dep ec "empproperty") else None in
  each ec (fun t ->
      Hashtbl.replace emp_pos (first_int (k.row t)) t.Cache.t_pos;
      Option.iter
        (fun sc ->
          Cursor.reset sc;
          each sc (fun s -> Hashtbl.replace skill_pos (first_int (k.row s)) s.Cache.t_pos))
        sc);
  (* below the projects: their members, or (ORG-UNIT) their skills *)
  let below, below_pos =
    if v.v_link = "membership" then (k.open_dep pc "membership", emp_pos)
    else (k.open_dep pc "projproperty", skill_pos)
  in
  each pc (fun t ->
      Hashtbl.replace proj_pos (first_int (k.row t)) t.Cache.t_pos;
      Cursor.reset below;
      each below (fun e -> Hashtbl.replace below_pos (first_int (k.row e)) e.Cache.t_pos));
  (dpos, emp_pos, proj_pos, skill_pos)

let pos h key what =
  match Hashtbl.find_opt h key with
  | Some p -> p
  | None -> fail "%s %d not reached by navigation" what key

(* ---- set-up and run ---- *)

type env = { api : Api.t; n_depts : int; root_only : Fetch_plan.t }

let setup cfg =
  let sc = scale cfg in
  let db = Db.create () in
  Workload.Company.populate db ~seed:cfg.seed ~scale:sc ~repr:Workload.Company.Cdb1;
  let api = Api.create db in
  Workload.Company.register_views api ~repr:Workload.Company.Cdb1;
  Array.iter
    (fun v -> ignore (Api.exec api (Printf.sprintf "PREPARE %s AS %s" v.v_plan (view_query v))))
    views;
  if cfg.trace then Array.iter (fun v -> Layers.prepare_probe api (view_query v)) views;
  let root_only = Fetch_plan.compile db (Api.registry api) (Xnf_parser.parse_query root_only_query) in
  let warm = Random.State.make [| cfg.seed; 103 |] in
  for _ = 1 to 5 do
    let d = Random.State.int warm sc.n_depts in
    Array.iter (fun v -> ignore (Api.execute_prepared api v.v_plan [ Value.Int d ])) views;
    ignore (Db.query db (sql_text d))
  done;
  { api; n_depts = sc.n_depts; root_only }

let run cfg env =
  let api = env.api and db = Api.db env.api in
  let md = read_model db in
  let plans = Array.map (fun v -> prepared api v.v_plan) views in
  let rng = Random.State.make [| cfg.seed; 3 |] in
  let fetch = samples () and save = samples () and sqls = samples () in
  let steps = ref 0 and step_s = ref 0. and traced_steps = ref 0 and failed = ref 0 in
  let hire_error = ref "" and model_skipped = ref false in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let counter = Obs.Metrics.counter_get in
  let step i ~traced:tr =
    let p = draw rng md ~n_depts:env.n_depts i in
    let k = if tr then traced else plain in
    (* a timed section: untraced steps add its wall time (and, given
       samples, its latency), traced ones run it under the layer-sum
       bracket *)
    let section s f =
      if tr then Probe.op f
      else begin
        let t0 = now_s () in
        let r = match s with Some s -> fst (timed s f) | None -> f () in
        step_s := !step_s +. (now_s () -. t0);
        r
      end
    in
    let cache =
      section (Some fetch) (fun () ->
          if tr then Layers.execute_plan db plans.(i mod Array.length views) [| Value.Int p.d |]
          else Api.execute_prepared api p.v.v_plan [ Value.Int p.d ])
    in
    if tr then begin
      Probe.add_count "cache.delivered_rows" (float_of_int (Layers.delivered cache));
      Layers.root_only db env.root_only [| Value.Int p.d |]
    end;
    if i = 0 && cfg.plant = Some Drop_tuple then drop_one cache "xemp";
    check_co md p.v p.d cache;
    (* navigation, then the manipulation batch *)
    let dpos, emp_pos, proj_pos, skill_pos = section None (fun () -> navigate k cache p.v) in
    let w0 = counter "xnf.udi.base_writes" and a0 = counter "wal.appends" in
    let emp e = pos emp_pos e "employee" in
    (try
       section (Some save) (fun () ->
           let ses = Api.session api cache in
           Udi.set_deferred ses true;
           List.iter (fun (e, s) -> k.update ses ~node:"xemp" ~pos:(emp e) [ ("sal", Value.Int s) ]) p.raises;
           let cp, cc = p.cut and ap, ac, pct = p.add in
           if p.v.v_link = "membership" then begin
             let proj q = pos proj_pos q "project" in
             k.disconnect ses ~edge:"membership" ~parent:(proj cp) ~child:(emp cc);
             k.connect ses ~edge:"membership" ~parent:(proj ap) ~child:(emp ac)
               ~attrs:[ ("percentage", Value.Int pct) ] ()
           end
           else begin
             let skill q = pos skill_pos q "skill" in
             k.disconnect ses ~edge:"empproperty" ~parent:(emp cp) ~child:(skill cc);
             k.connect ses ~edge:"empproperty" ~parent:(emp ap) ~child:(skill ac) ()
           end;
           k.save ses)
     with Udi.Udi_error msg -> fail "manipulation batch on dept %d failed: %s" p.d msg);
    if tr then begin
      Probe.add_count "udi.base_writes" (float_of_int (counter "xnf.udi.base_writes" - w0));
      Probe.add_count "wal.appends" (float_of_int (counter "wal.appends" - a0))
    end;
    let skip = cfg.plant = Some Skip_model && not !model_skipped in
    model_skipped := !model_skipped || skip;
    apply_batch md p ~skip_first:skip;
    (* the hire: insert, connect through employment, save *)
    let eno = 1_000_000 + i in
    let hired =
      section None (fun () ->
          let ses = Api.session api cache in
          Udi.set_deferred ses true;
          let e =
            k.insert ses ~node:"xemp"
              [| Value.Int eno; Value.Str "hire"; Value.Int 1000; Value.Null; Value.Str "regular" |]
          in
          k.connect ses ~edge:"employment" ~parent:dpos ~child:e ();
          try
            k.hire_save ses;
            Ok ()
          with Udi.Udi_error msg -> Error msg)
    in
    (match hired with
    | Ok () ->
      Hashtbl.replace md.sal eno 1000;
      push md.emps_of p.d eno
    | Error msg ->
      incr failed;
      hire_error := msg);
    let rows =
      section (Some sqls) (fun () ->
          if tr then Layers.sql db (sql_text p.d) else (Db.query db (sql_text p.d)).Db.rrows)
    in
    check_sql md p.d rows;
    if tr then incr traced_steps else incr steps
  in
  loop cfg step;
  let ops_per_step = 4 in
  let e2e, layer =
    Layers.figures cfg ~fetch ~ops:(ops_per_step * !steps) ~op_s:!step_s
      ~traced_ops:(ops_per_step * !traced_steps) ~major0
  in
  { attempted = ops_per_step * (!steps + !traced_steps); failed = !failed; e2e; layer;
    report =
      [ tail_line "fetch (EXECUTE)" fetch; tail_line "save (batch incl. save)" save;
        tail_line "sql" sqls;
        Printf.sprintf "steps: %d (%.1f steps/s); hires failed: %d%s" !steps
          (float_of_int !steps /. !step_s) !failed
          (if !hire_error = "" then "" else " (" ^ !hire_error ^ ")") ] }
