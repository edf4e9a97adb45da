(* Tests for the disk model, replacement policies, and the buffer pool. *)

open Bufpool

let mib = Dbmem.Units.mib

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_service_time () =
  let eng = Sim.Engine.create () in
  (* 4 spindles x 100 B/s aggregate to 400 B/s. *)
  let d = Disk.create eng ~spindles:4 ~seek_s:0.5 ~throughput_bytes_per_s:100. in
  Alcotest.(check (float 1e-9)) "seek + transfer" 1.5 (Disk.service_time d ~bytes:400)

let test_disk_read_blocks_for_duration () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~spindles:1 ~seek_s:1.0 ~throughput_bytes_per_s:100. in
  let finished = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Disk.read d ~bytes:200;
      finished := Sim.Engine.now eng);
  Sim.Engine.run_all eng;
  Alcotest.(check (float 1e-9)) "1s seek + 2s transfer" 3.0 !finished;
  Alcotest.(check int) "bytes" 200 (Disk.bytes_read d);
  Alcotest.(check int) "reads" 1 (Disk.reads d)

let test_disk_concurrent_reads_queue () =
  let eng = Sim.Engine.create () in
  (* Aggregate model: one server; two simultaneous reads serialize. *)
  let d = Disk.create eng ~spindles:2 ~seek_s:0. ~throughput_bytes_per_s:50. in
  let done_times = ref [] in
  for _ = 1 to 2 do
    Sim.Engine.spawn eng (fun () ->
        Disk.read d ~bytes:100;
        done_times := Sim.Engine.now eng :: !done_times)
  done;
  Sim.Engine.run_all eng;
  (* 100 bytes at 100 B/s aggregate = 1 s each, serialized: 1 s and 2 s. *)
  Alcotest.(check (list (float 1e-9))) "serialized" [ 2.0; 1.0 ] !done_times

let test_disk_zero_bytes_instant () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~spindles:1 ~seek_s:1.0 ~throughput_bytes_per_s:100. in
  let finished = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      Disk.read d ~bytes:0;
      finished := Sim.Engine.now eng);
  Sim.Engine.run_all eng;
  Alcotest.(check (float 1e-9)) "no transfer no wait" 0.0 !finished

let test_disk_write_accounting () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~spindles:1 ~seek_s:0. ~throughput_bytes_per_s:100. in
  Sim.Engine.spawn eng (fun () -> Disk.write d ~bytes:300);
  Sim.Engine.run_all eng;
  Alcotest.(check int) "written" 300 (Disk.bytes_written d);
  Alcotest.(check int) "not counted as read" 0 (Disk.bytes_read d)

(* ------------------------------------------------------------------ *)
(* Policies *)

let page i = Policy.page_id ~table:0 ~page:i

let test_lru_evicts_oldest () =
  let p = Policy.create Policy.Lru in
  List.iter (fun i -> Policy.insert p (page i)) [ 1; 2; 3 ];
  Policy.touch p (page 1);
  (* Order of last use: 2, 3, 1. *)
  Alcotest.(check int) "evict 2" (page 2) (Policy.evict p);
  Alcotest.(check int) "evict 3" (page 3) (Policy.evict p);
  Alcotest.(check int) "evict 1" (page 1) (Policy.evict p);
  Alcotest.(check int) "empty" (-1) (Policy.evict p)

let test_clock_second_chance () =
  let p = Policy.create Policy.Clock in
  List.iter (fun i -> Policy.insert p (page i)) [ 1; 2; 3 ];
  Policy.touch p (page 1);
  (* 1 has its reference bit set: the hand skips it once and takes 2. *)
  Alcotest.(check int) "evict 2" (page 2) (Policy.evict p);
  Alcotest.(check int) "evict 3" (page 3) (Policy.evict p);
  Alcotest.(check int) "then 1" (page 1) (Policy.evict p)

let test_lru2_scan_resistance () =
  let p = Policy.create Policy.Lru2 in
  (* Two hot pages, touched twice. *)
  Policy.insert p (page 100);
  Policy.insert p (page 101);
  Policy.touch p (page 100);
  Policy.touch p (page 101);
  (* A scan floods ten one-touch pages. *)
  for i = 0 to 9 do
    Policy.insert p (page i)
  done;
  (* All ten scan pages must be evicted before either hot page. *)
  for _ = 1 to 10 do
    match Policy.evict p with
    | -1 -> Alcotest.fail "premature empty"
    | i -> Alcotest.(check bool) "scan page first" true (i < page 100)
  done;
  Alcotest.(check int) "hot pages survive" 2 (Policy.size p)

let test_policy_mem_and_size () =
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      Policy.insert p (page 1);
      Policy.insert p (page 2);
      Alcotest.(check bool) "mem" true (Policy.mem p (page 1));
      Alcotest.(check bool) "not mem" false (Policy.mem p (page 9));
      Alcotest.(check int) "size" 2 (Policy.size p);
      ignore (Policy.evict p);
      Alcotest.(check int) "size after evict" 1 (Policy.size p))
    [ Policy.Lru; Policy.Clock; Policy.Lru2 ]

let test_policy_backlog_bounded () =
  (* The stamp queues (LRU/LRU2) and the clock ring grow on every touch;
     compaction must keep them within a constant factor of the resident
     set instead of one entry per historical access. *)
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      for i = 0 to 3 do
        Policy.insert p (page i)
      done;
      for t = 0 to 9_999 do
        Policy.touch p (page (t mod 4))
      done;
      let bound = (2 * Policy.size p) + 64 in
      Alcotest.(check bool)
        (Printf.sprintf "backlog %d within bound %d" (Policy.backlog p) bound)
        true
        (Policy.backlog p <= bound);
      (* Compaction must not disturb eviction: all four pages drain. *)
      let rec drain n =
        if Policy.evict p >= 0 then drain (n + 1) else n
      in
      Alcotest.(check int) "all pages still evictable" 4 (drain 0))
    [ Policy.Lru; Policy.Lru2 ]

(* Property: every policy returns each inserted page exactly once across
   evictions, regardless of the touch pattern. *)
let prop_policy_complete_eviction =
  QCheck.Test.make ~name:"policies evict every resident page exactly once" ~count:100
    QCheck.(pair (int_range 0 2) (list (int_range 0 9)))
    (fun (kind_idx, touches) ->
      let kind = [| Policy.Lru; Policy.Clock; Policy.Lru2 |].(kind_idx) in
      let p = Policy.create kind in
      for i = 0 to 9 do
        Policy.insert p (page i)
      done;
      List.iter (fun i -> Policy.touch p (page i)) touches;
      let evicted = ref [] in
      let rec drain () =
        match Policy.evict p with
        | -1 -> ()
        | pg ->
            evicted := pg :: !evicted;
            drain ()
      in
      drain ();
      List.sort compare !evicted = List.init 10 (fun i -> page i))

(* Property: the flat policies answer exactly like the tuple-keyed
   reference implementations. A seeded stream of insert/touch/mem/evict
   and shrink-to-k over four table ids (the largest packable among them)
   and page numbers at both ends of the packed range; an insert of a
   resident page becomes a touch, as in the pool. Every answer is
   compared: mem, each victim (the reference's repacked), size and the
   lazily-cleaned backlog. Streams run long enough to compact. *)
let prop_flat_policy_matches_reference =
  QCheck.Test.make ~name:"flat policy = reference (mem, victims, size)"
    ~count:300
    QCheck.(pair (int_range 0 2) (int_range 0 1_000_000))
    (fun (kind_idx, seed) ->
      let kind = [| Policy.Lru; Policy.Clock; Policy.Lru2 |].(kind_idx) in
      let rkind =
        [| Policy_reference.Lru; Policy_reference.Clock; Policy_reference.Lru2 |].(kind_idx)
      in
      let flat = Policy.create kind and r = Policy_reference.create rkind in
      let rng = Sim.Rng.create seed in
      let tables = [| 0; 1; 5; Policy.max_table |] in
      let universe = 8 + Sim.Rng.int rng 60 in
      let draw () =
        let table = tables.(Sim.Rng.int rng 4) and k = Sim.Rng.int rng universe in
        let page = if Sim.Rng.bool rng then k else Policy.max_page_no - k in
        ((table, page), Policy.page_id ~table ~page)
      in
      let victim () =
        let v = Policy.evict flat in
        match Policy_reference.evict r with
        | None -> v = -1
        | Some (table, page) -> v = Policy.page_id ~table ~page
      in
      let ok = ref true in
      for _ = 1 to 200 + Sim.Rng.int rng 800 do
        (match Sim.Rng.int rng 10 with
        | 0 | 1 | 2 ->
            let rp, p = draw () in
            if Policy_reference.mem r rp then begin
              Policy_reference.touch r rp;
              Policy.touch flat p
            end
            else begin
              Policy_reference.insert r rp;
              Policy.insert flat p
            end
        | 3 | 4 | 5 ->
            let rp, p = draw () in
            Policy_reference.touch r rp;
            Policy.touch flat p
        | 6 | 7 ->
            let rp, p = draw () in
            if Policy_reference.mem r rp <> Policy.mem flat p then ok := false
        | 8 -> if not (victim ()) then ok := false
        | _ ->
            let k = Sim.Rng.int rng (1 + Policy_reference.size r) in
            while Policy_reference.size r > k do
              if not (victim ()) then ok := false
            done);
        if
          Policy_reference.size r <> Policy.size flat
          || Policy_reference.backlog r <> Policy.backlog flat
        then ok := false
      done;
      while Policy_reference.size r > 0 do
        if not (victim ()) then ok := false
      done;
      !ok && victim ())

(* ------------------------------------------------------------------ *)
(* Pool *)

let make_pool ?(total = mib 64) ?(page_bytes = mib 1) ?(policy = Policy.Lru) () =
  let eng = Sim.Engine.create () in
  let manager = Dbmem.Manager.create ~total () in
  let clerk = Dbmem.Manager.create_clerk manager "bufpool" in
  let disk =
    Disk.create eng ~spindles:1 ~seek_s:0.001
      ~throughput_bytes_per_s:(float_of_int (mib 100))
  in
  let pool = Pool.create eng manager ~clerk ~disk ~page_bytes ~policy in
  (eng, manager, disk, pool)

let in_process eng f =
  Sim.Engine.spawn eng f;
  Sim.Engine.run_all eng;
  Alcotest.(check int) "no failures" 0 (List.length (Sim.Engine.failures eng))

(* The packed id's bounds: each part below zero or above its maximum is
   rejected, by the packer and by every pool read, instead of colliding
   with another page's id. *)
let check_rejected what f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let pool_rejects ~table ~page =
  let _, _, _, pool = make_pool () in
  let rng = Sim.Rng.create 1 in
  check_rejected "page_id" (fun () -> ignore (Policy.page_id ~table ~page));
  check_rejected "read" (fun () -> Pool.read pool ~table ~page);
  check_rejected "read_range" (fun () ->
      Pool.read_range pool ~table ~first:(max 0 page - 1) ~count:2);
  if page >= 0 then
    check_rejected "read_random" (fun () ->
        Pool.read_random pool ~table ~pages:1 ~of_pages:(page + 1) ~rng)

let test_page_id_table_below () = pool_rejects ~table:(-1) ~page:0
let test_page_id_table_above () = pool_rejects ~table:(Policy.max_table + 1) ~page:0
let test_page_id_page_below () = pool_rejects ~table:0 ~page:(-1)
let test_page_id_page_above () = pool_rejects ~table:0 ~page:(Policy.max_page_no + 1)

let test_page_id_extremes_distinct () =
  let top = Policy.page_id ~table:Policy.max_table ~page:Policy.max_page_no in
  Alcotest.(check bool) "largest id is non-negative" true (top >= 0);
  Alcotest.(check bool) "last page of one table <> first of the next" true
    (Policy.page_id ~table:0 ~page:Policy.max_page_no
    <> Policy.page_id ~table:1 ~page:0);
  List.iter
    (fun kind ->
      check_rejected "insert -1" (fun () -> Policy.insert (Policy.create kind) (-1)))
    [ Policy.Lru; Policy.Clock; Policy.Lru2 ]

let test_pool_hit_miss_accounting () =
  let eng, _, _, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () ->
      Pool.read pool ~table:t ~page:0;
      Pool.read pool ~table:t ~page:0;
      Pool.read pool ~table:t ~page:1);
  Alcotest.(check int) "hits" 1 (Pool.hits pool);
  Alcotest.(check int) "misses" 2 (Pool.misses pool);
  Alcotest.(check (float 1e-9)) "hit rate" (1. /. 3.) (Pool.hit_rate pool)

let test_pool_miss_costs_io_hit_does_not () =
  let eng, _, disk, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () ->
      Pool.read pool ~table:t ~page:0;
      let bytes_after_miss = Disk.bytes_read disk in
      Pool.read pool ~table:t ~page:0;
      Alcotest.(check int) "hit causes no io" bytes_after_miss (Disk.bytes_read disk))

let test_pool_resident_equals_clerk () =
  let eng, manager, _, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:10);
  Alcotest.(check int) "resident bytes = clerk usage"
    (Pool.resident_bytes pool)
    (Dbmem.Manager.used manager);
  Alcotest.(check int) "10 pages resident" 10 (Pool.resident_pages pool);
  Alcotest.(check int) "pages * page_bytes" (10 * mib 1) (Pool.resident_bytes pool)

let test_pool_recycles_when_memory_full () =
  (* 8 MiB of memory, 1 MiB granules: reading 20 pages must work, keeping
     residency at 8 and evicting internally. *)
  let eng, manager, _, pool = make_pool ~total:(mib 8) () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:20);
  Alcotest.(check int) "capped residency" (mib 8) (Pool.resident_bytes pool);
  Alcotest.(check bool) "evictions happened" true (Pool.evictions pool >= 12);
  Alcotest.(check int) "manager consistent" (mib 8) (Dbmem.Manager.used manager)

let test_pool_shrink () =
  let eng, manager, _, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:16);
  let freed = Pool.shrink pool (mib 5) in
  Alcotest.(check int) "freed rounded to granules" (mib 5) freed;
  Alcotest.(check int) "resident" (mib 11) (Pool.resident_bytes pool);
  Alcotest.(check int) "clerk follows" (mib 11) (Dbmem.Manager.used manager);
  let freed2 = Pool.shrink_to pool (mib 4) in
  Alcotest.(check int) "shrink_to" (mib 7) freed2;
  Alcotest.(check int) "resident at target" (mib 4) (Pool.resident_bytes pool)

let test_pool_shrink_empty () =
  let _, _, _, pool = make_pool () in
  Alcotest.(check int) "nothing to free" 0 (Pool.shrink pool (mib 1))

let test_pool_table_interning () =
  let _, _, _, pool = make_pool () in
  let a = Pool.table_id pool "alpha" in
  let b = Pool.table_id pool "beta" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "stable" a (Pool.table_id pool "alpha")

let test_pool_pages_distinct_per_table () =
  let eng, _, _, pool = make_pool () in
  let a = Pool.table_id pool "a" and b = Pool.table_id pool "b" in
  in_process eng (fun () ->
      Pool.read pool ~table:a ~page:0;
      Pool.read pool ~table:b ~page:0);
  Alcotest.(check int) "two distinct pages" 2 (Pool.resident_pages pool);
  Alcotest.(check int) "both misses" 2 (Pool.misses pool)

let test_pool_read_range_batches_io () =
  let eng, _, disk, pool = make_pool ~total:(mib 256) () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:100);
  (* 100 misses coalesce into ceil(100/64) = 2 transfers. *)
  Alcotest.(check int) "transfers" 2 (Disk.reads disk);
  Alcotest.(check int) "bytes" (100 * mib 1) (Disk.bytes_read disk)

let test_pool_demand_hint () =
  let eng, _, _, pool = make_pool ~total:(mib 8) () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:20);
  (* 20 misses at 1 MiB each + 8 MiB resident. *)
  Alcotest.(check int) "resident + unmet" (mib 28) (Pool.demand_hint pool);
  (* The window resets. *)
  Alcotest.(check int) "window reset" (mib 8) (Pool.demand_hint pool)

let test_pool_read_random_in_bounds () =
  let eng, _, _, pool = make_pool ~total:(mib 256) () in
  let t = Pool.table_id pool "fact" in
  let rng = Sim.Rng.create 3 in
  in_process eng (fun () ->
      Pool.read_random pool ~table:t ~pages:50 ~of_pages:10 ~rng);
  (* Only 10 distinct pages exist; residency cannot exceed them. *)
  Alcotest.(check bool) "bounded residency" true (Pool.resident_pages pool <= 10);
  Alcotest.(check int) "50 accesses" 50 (Pool.hits pool + Pool.misses pool)

let test_pool_lru2_protects_hot_set () =
  (* A hot set re-read between scan bursts survives with LRU-2 but not
     with LRU when each burst alone overflows the pool. *)
  let survived policy =
    let eng, _, _, pool = make_pool ~total:(mib 6) ~policy () in
    let hot = Pool.table_id pool "hot" and scan = Pool.table_id pool "scan" in
    Sim.Engine.spawn eng (fun () ->
        (* Establish the hot set with two rounds of touches. *)
        for round = 1 to 2 do
          ignore round;
          Pool.read_range pool ~table:hot ~first:0 ~count:4
        done;
        (* One-touch scan bursts bigger than the pool, interleaved with
           hot re-reads. *)
        for chunk = 0 to 9 do
          Pool.read_range pool ~table:scan ~first:(chunk * 8) ~count:8;
          Pool.read_range pool ~table:hot ~first:0 ~count:4
        done);
    Sim.Engine.run_all eng;
    Pool.hit_rate pool
  in
  let lru2 = survived Policy.Lru2 and lru = survived Policy.Lru in
  Alcotest.(check bool)
    (Printf.sprintf "lru2 hit rate (%.2f) beats lru (%.2f) under scan flood" lru2 lru)
    true (lru2 > lru)

let test_pool_hit_rate_fresh () =
  (* Zero accesses reads as 0., not 0/0 = nan. *)
  let _, _, _, pool = make_pool () in
  Alcotest.(check (float 1e-9)) "fresh" 0. (Pool.hit_rate pool)

let suite =
  [
    ("disk service time", `Quick, test_disk_service_time);
    ("disk read blocks", `Quick, test_disk_read_blocks_for_duration);
    ("disk concurrent reads queue", `Quick, test_disk_concurrent_reads_queue);
    ("disk zero bytes", `Quick, test_disk_zero_bytes_instant);
    ("disk write accounting", `Quick, test_disk_write_accounting);
    ("lru evicts oldest", `Quick, test_lru_evicts_oldest);
    ("clock second chance", `Quick, test_clock_second_chance);
    ("lru2 scan resistance", `Quick, test_lru2_scan_resistance);
    ("policy mem/size", `Quick, test_policy_mem_and_size);
    ("policy backlog bounded", `Quick, test_policy_backlog_bounded);
    ("pool hit rate fresh", `Quick, test_pool_hit_rate_fresh);
    ("pool hit/miss accounting", `Quick, test_pool_hit_miss_accounting);
    ("pool miss costs io", `Quick, test_pool_miss_costs_io_hit_does_not);
    ("pool resident = clerk", `Quick, test_pool_resident_equals_clerk);
    ("pool recycles when full", `Quick, test_pool_recycles_when_memory_full);
    ("pool shrink", `Quick, test_pool_shrink);
    ("pool shrink empty", `Quick, test_pool_shrink_empty);
    ("pool table interning", `Quick, test_pool_table_interning);
    ("pool pages per table", `Quick, test_pool_pages_distinct_per_table);
    ("pool read_range batches io", `Quick, test_pool_read_range_batches_io);
    ("pool demand hint", `Quick, test_pool_demand_hint);
    ("pool read_random bounds", `Quick, test_pool_read_random_in_bounds);
    ("pool lru2 protects hot set", `Quick, test_pool_lru2_protects_hot_set);
    ("page id table below 0", `Quick, test_page_id_table_below);
    ("page id table above max", `Quick, test_page_id_table_above);
    ("page id page below 0", `Quick, test_page_id_page_below);
    ("page id page above max", `Quick, test_page_id_page_above);
    ("page id extremes distinct", `Quick, test_page_id_extremes_distinct);
    QCheck_alcotest.to_alcotest prop_policy_complete_eviction;
    QCheck_alcotest.to_alcotest prop_flat_policy_matches_reference;
  ]
