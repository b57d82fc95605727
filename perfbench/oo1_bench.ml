(* The two OO1 workloads (Cattell's engineering database, 3 outgoing
   connections per part, 90% of them local).

   oo1-traverse: one operation is EXECUTE of a prepared 7-hop traversal
   CO rooted at one seeded random part, then a full dependent-cursor walk
   of the delivered CO that decodes every visited tuple. Many small
   prepared fetches, each followed by navigation.

   oo1-closure: one operation is the ad-hoc text fetch of the recursive
   closure CO from four fixed roots. One large recursive fetch per
   operation; parse, compose and compile run every time; no navigation.

   Both are checked against a BFS over the raw CONNECTION rows, read with
   Table.iter at set-up. *)

open Relational
open Xnf
open Common

let depth = 7

let traverse_query =
  let b = Buffer.create 1024 in
  Buffer.add_string b "OUT OF Xp0 AS (SELECT * FROM part WHERE id = ?)";
  for k = 1 to depth do
    Printf.bprintf b ", Xc%d AS CONNECTION, Xp%d AS PART" k k
  done;
  for k = 1 to depth do
    Printf.bprintf b
      ", o%d AS (RELATE Xp%d, Xc%d WHERE Xp%d.id = Xc%d.from_id), t%d AS (RELATE Xc%d, Xp%d WHERE \
       Xc%d.to_id = Xp%d.id)"
      k (k - 1) k (k - 1) k k k k k k
  done;
  Buffer.add_string b " TAKE *";
  Buffer.contents b

let traverse_root_only = "OUT OF Xp0 AS (SELECT * FROM part WHERE id = ?) TAKE *"

let roots_pred roots = String.concat " OR " (List.map (Printf.sprintf "id = %d") roots)

let closure_query roots =
  Printf.sprintf
    "OUT OF Xroot AS (SELECT * FROM part WHERE %s), Xconn AS CONNECTION, Xpart AS PART, rootout AS \
     (RELATE Xroot, Xconn WHERE Xroot.id = Xconn.from_id), target AS (RELATE Xconn, Xpart WHERE \
     Xconn.to_id = Xpart.id), outgoing AS (RELATE Xpart, Xconn WHERE Xpart.id = Xconn.from_id) \
     TAKE *"
    (roots_pred roots)

let closure_root_only roots =
  Printf.sprintf "OUT OF Xroot AS (SELECT * FROM part WHERE %s) TAKE *" (roots_pred roots)

let n_parts cfg = if cfg.small then 2_000 else 20_000

(* the four roots of E14: ids 0, n/4, n/2, 3n/4 *)
let closure_roots n = [ 0; n / 4; n / 2; 3 * n / 4 ]

(* ---- the model: the raw CONNECTION rows ---- *)

type graph = {
  n : int;  (** parts, ids 0 .. n-1 *)
  c_from : int array;  (** by connection rowid *)
  c_to : int array;
  out : int array array;  (** by part id: rowids of its outgoing connections *)
}

let read_graph db n =
  let conn = Catalog.table (Db.catalog db) "connection" in
  let sch = Table.schema conn in
  let fi = Schema.find sch "from_id" and ti = Schema.find sch "to_id" in
  let slots = Table.slot_count conn in
  let c_from = Array.make slots (-1) and c_to = Array.make slots (-1) in
  let out = Array.make n [] in
  Table.iter
    (fun rowid row ->
      match row.(fi), row.(ti) with
      | Value.Int f, Value.Int t ->
        c_from.(rowid) <- f;
        c_to.(rowid) <- t;
        out.(f) <- rowid :: out.(f)
      | _ -> fail "connection row %d has a non-integer endpoint" rowid)
    conn;
  { n; c_from; c_to; out = Array.map (fun l -> Array.of_list (List.rev l)) out }

let sorted_uniq l = List.sort_uniq compare l

(* ---- reading the delivered CO ---- *)

let int_col t i =
  match Cache.col t i with Value.Int v -> v | _ -> fail "non-integer key in the delivered CO"

let node_ids cache node col =
  let ni = Cache.node cache node in
  let i = Schema.find ni.Cache.ni_schema col in
  List.map (fun t -> int_col t i) (Cache.live_tuples ni)

let node_rowids cache node = List.map (fun t -> t.Cache.t_rowid) (Cache.live_tuples (Cache.node cache node))

let same what expected got =
  let got = List.sort compare got in
  if got <> expected then
    fail "%s: expected %d entries, the CO delivered %d (or different ones)" what
      (List.length expected) (List.length got)

(* ---- oo1-traverse ---- *)

(* what the walk of the CO rooted at [root] must produce: per level the
   connection rowids and part ids, the number of cursor steps (paths) and
   the sum of decoded keys over them (part ids and connection to_ids) *)
type expect = { levels : (int list * int list) array; steps : int; sum : int }

let expect g root =
  let levels = Array.make (depth + 1) ([], [ root ]) in
  let steps = ref 1 and sum = ref root in
  let paths = Hashtbl.create 64 in
  Hashtbl.replace paths root 1;
  for k = 1 to depth do
    let parts = snd levels.(k - 1) in
    let conns = sorted_uniq (List.concat_map (fun p -> Array.to_list g.out.(p)) parts) in
    let next = Hashtbl.create 64 in
    List.iter
      (fun c ->
        let pc = Hashtbl.find paths g.c_from.(c) in
        steps := !steps + (2 * pc);
        sum := !sum + (2 * pc * g.c_to.(c));
        let q = g.c_to.(c) in
        Hashtbl.replace next q (pc + Option.value ~default:0 (Hashtbl.find_opt next q)))
      conns;
    Hashtbl.reset paths;
    Hashtbl.iter (Hashtbl.replace paths) next;
    levels.(k) <- (conns, sorted_uniq (List.map (fun c -> g.c_to.(c)) conns))
  done;
  { levels; steps = !steps; sum = !sum }

(* cursor operations, plain or traced *)
type nav = {
  open_ind : Cache.t -> string -> Cursor.t;
  open_dep : Cursor.t -> string -> Cursor.t;
  next_row : Cursor.t -> Row.t option;  (** a step, then the decode of its tuple *)
}

let plain =
  { open_ind = (fun c n -> Cursor.open_independent c n);
    open_dep = (fun p e -> Cursor.open_dependent ~parent:p (Cursor.via e));
    next_row = (fun c -> match Cursor.next c with Some t -> Some (Cache.row t) | None -> None) }

let traced =
  { open_ind = Layers.open_independent; open_dep = Layers.open_dependent;
    next_row = Layers.next_row }

let key r = match r.(0) with Value.Int v -> v | _ -> 0
let to_id r = match r.(1) with Value.Int v -> v | _ -> 0

(** [walk nav cache] walks every path of the traversal CO with dependent
    cursors, decoding each visited tuple; returns (steps, key sum). *)
let walk nav cache =
  let root = nav.open_ind cache "xp0" in
  let cs = Array.make (depth + 1) root and ps = Array.make (depth + 1) root in
  for k = 1 to depth do
    cs.(k) <- nav.open_dep ps.(k - 1) (Printf.sprintf "o%d" k);
    ps.(k) <- nav.open_dep cs.(k) (Printf.sprintf "t%d" k)
  done;
  let steps = ref 0 and sum = ref 0 in
  let rec level k =
    if k <= depth then begin
      let cc = cs.(k) and pc = ps.(k) in
      Cursor.reset cc;
      let rec conns () =
        match nav.next_row cc with
        | None -> ()
        | Some r ->
          incr steps;
          sum := !sum + to_id r;
          Cursor.reset pc;
          parts ();
          conns ()
      and parts () =
        match nav.next_row pc with
        | None -> ()
        | Some r ->
          incr steps;
          sum := !sum + key r;
          level (k + 1);
          parts ()
      in
      conns ()
    end
  in
  (match nav.next_row root with
  | Some r ->
    incr steps;
    sum := !sum + key r;
    level 1
  | None -> ());
  (!steps, !sum)

type traverse_env = {
  t_api : Api.t;
  t_n : int;
  t_root_only : Fetch_plan.t;
}

let traverse_setup cfg =
  let n = n_parts cfg in
  let db = Db.create () in
  Workload.Oo1.populate db ~seed:cfg.seed ~n_parts:n;
  let api = Api.create db in
  ignore (Api.exec api ("PREPARE trav AS " ^ traverse_query));
  if cfg.trace then Layers.prepare_probe api traverse_query;
  let root_only = Fetch_plan.compile db (Api.registry api) (Xnf_parser.parse_query traverse_root_only) in
  let warm = Random.State.make [| cfg.seed; 101 |] in
  for _ = 1 to 10 do
    ignore (walk plain (Api.execute_prepared api "trav" [ Value.Int (Random.State.int warm n) ]))
  done;
  { t_api = api; t_n = n; t_root_only = root_only }

let traverse_run cfg env =
  let api = env.t_api and db = Api.db env.t_api in
  let g = read_graph db env.t_n in
  let plan = prepared api "trav" in
  let rng = Random.State.make [| cfg.seed; 1 |] in
  let fetch = samples () and walks = samples () in
  let op_s = ref 0. and ops = ref 0 and steps = ref 0 and walk_s = ref 0. in
  let traced_ops = ref 0 in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let check i root cache (got_steps, got_sum) =
    if i = 0 && cfg.plant = Some Drop_tuple then drop_one cache (Printf.sprintf "xp%d" depth);
    let e = expect g root in
    Array.iteri
      (fun k (conns, parts) ->
        if k > 0 then
          same (Printf.sprintf "level %d connections" k) conns
            (node_rowids cache (Printf.sprintf "xc%d" k));
        same (Printf.sprintf "level %d parts" k) parts (node_ids cache (Printf.sprintf "xp%d" k) "id"))
      e.levels;
    if got_steps <> e.steps then fail "cursor walk from part %d: %d steps, %d paths" root got_steps e.steps;
    if got_sum <> e.sum then
      fail "cursor walk from part %d: decoded key sum %d, expected %d" root got_sum e.sum
  in
  loop cfg (fun i ~traced:tr ->
    let root = Random.State.int rng env.t_n in
    if not tr then begin
      let cache, f_s = timed fetch (fun () -> Api.execute_prepared api "trav" [ Value.Int root ]) in
      let walked, w_s = timed walks (fun () -> walk plain cache) in
      op_s := !op_s +. f_s +. w_s;
      walk_s := !walk_s +. w_s;
      steps := !steps + fst walked;
      incr ops;
      check i root cache walked
    end
    else begin
      let cache, walked =
        Probe.op (fun () ->
            let cache = Layers.execute_plan db plan [| Value.Int root |] in
            Layers.adjacency cache;
            (cache, walk traced cache))
      in
      incr traced_ops;
      Probe.add_count "cache.delivered_rows" (float_of_int (Layers.delivered cache));
      Layers.root_only db env.t_root_only [| Value.Int root |];
      ignore (Layers.sql db (Printf.sprintf "SELECT * FROM part WHERE id = %d" root));
      check i root cache walked
    end);
  let e2e, layer =
    Layers.figures cfg ~fetch ~ops:!ops ~op_s:!op_s ~traced_ops:!traced_ops ~major0
  in
  { attempted = !ops + !traced_ops; failed = 0; e2e; layer;
    report =
      [ tail_line "fetch (EXECUTE)" fetch; tail_line "walk" walks;
        Printf.sprintf "nav_steps_per_s: %.0f steps/s (%d steps over %d walks)"
          (float_of_int !steps /. !walk_s) !steps walks.n ] }

(* ---- oo1-closure ---- *)

type closure_env = {
  c_api : Api.t;
  c_n : int;
  c_text : string;
  c_root_only : Fetch_plan.t;
}

let closure_setup cfg =
  let n = n_parts cfg in
  let db = Db.create () in
  Workload.Oo1.populate db ~seed:cfg.seed ~n_parts:n;
  let api = Api.create db in
  let roots = closure_roots n in
  let text = closure_query roots in
  let root_only =
    Fetch_plan.compile db (Api.registry api) (Xnf_parser.parse_query (closure_root_only roots))
  in
  ignore (Api.fetch_string api text);
  { c_api = api; c_n = n; c_text = text; c_root_only = root_only }

(* the closure over the raw rows: parts reached by at least one hop from
   the roots, and the connections leaving the roots or those parts *)
let closure_expect g roots =
  let reached = Array.make g.n false and stack = ref [] in
  let visit p =
    Array.iter
      (fun c ->
        let q = g.c_to.(c) in
        if not reached.(q) then begin
          reached.(q) <- true;
          stack := q :: !stack
        end)
      g.out.(p)
  in
  List.iter visit roots;
  while !stack <> [] do
    match !stack with
    | p :: rest ->
      stack := rest;
      visit p
    | [] -> ()
  done;
  let parts = List.filter (fun p -> reached.(p)) (List.init g.n Fun.id) in
  let sources = sorted_uniq (roots @ parts) in
  let conns = List.sort compare (List.concat_map (fun p -> Array.to_list g.out.(p)) sources) in
  (parts, conns)

let closure_run cfg env =
  let api = env.c_api and db = Api.db env.c_api in
  let g = read_graph db env.c_n in
  let roots = closure_roots env.c_n in
  let want_parts, want_conns = closure_expect g roots in
  let fetch = samples () in
  let op_s = ref 0. and ops = ref 0 and traced_ops = ref 0 in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let check i cache =
    if i = 0 && cfg.plant = Some Drop_tuple then drop_one cache "xpart";
    same "Xroot" (List.sort compare roots) (node_ids cache "xroot" "id");
    same "Xpart" want_parts (node_ids cache "xpart" "id");
    same "Xconn" want_conns (node_rowids cache "xconn")
  in
  loop cfg (fun i ~traced:tr ->
    if not tr then begin
      let cache, f_s = timed fetch (fun () -> Api.fetch_string api env.c_text) in
      op_s := !op_s +. f_s;
      incr ops;
      check i cache
    end
    else begin
      let cache = Probe.op (fun () -> Layers.fetch_text api env.c_text) in
      incr traced_ops;
      Probe.add_count "cache.delivered_rows" (float_of_int (Layers.delivered cache));
      (* the layers the operation does not call, timed beside it:
         the root node alone, its SQL counterpart, and the first
         navigation steps over the delivered closure *)
      Layers.root_only db env.c_root_only [||];
      ignore (Layers.sql db ("SELECT * FROM part WHERE " ^ roots_pred roots));
      Layers.adjacency cache;
      let r = Layers.open_independent cache "xroot" in
      let c = Layers.open_dependent r "rootout" in
      let p = Layers.open_dependent c "target" in
      let rec each c f =
        match Layers.next c with
        | None -> ()
        | Some t ->
          ignore (Layers.row t);
          f ();
          each c f
      in
      each r (fun () ->
          Cursor.reset c;
          each c (fun () ->
              Cursor.reset p;
              each p ignore));
      check i cache
    end);
  let e2e, layer =
    Layers.figures cfg ~fetch ~ops:!ops ~op_s:!op_s ~traced_ops:!traced_ops ~major0
  in
  { attempted = !ops + !traced_ops; failed = 0; e2e; layer;
    report =
      [ tail_line "fetch (text)" fetch;
        Printf.sprintf "closure: %d roots, %d reached parts, %d connections" (List.length roots)
          (List.length want_parts) (List.length want_conns) ] }
