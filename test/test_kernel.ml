open Hrt_engine
open Hrt_kernel

(* ---- Deque ---- *)

let test_deque_ends () =
  let d = Deque.create () in
  Deque.push_back d 2;
  Deque.push_back d 3;
  Deque.push_front d 1;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Deque.to_list d);
  Alcotest.(check (option int)) "peek" (Some 1) (Deque.peek_front d);
  Alcotest.(check (option int)) "pop" (Some 1) (Deque.pop_front d);
  Alcotest.(check int) "length" 2 (Deque.length d)

let test_deque_remove () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "remove middle" (Some 3)
    (Deque.remove d (fun x -> x = 3));
  Alcotest.(check (list int)) "rest in order" [ 1; 2; 4 ] (Deque.to_list d);
  Alcotest.(check (option int)) "remove missing" None
    (Deque.remove d (fun x -> x = 9))

let test_deque_mixed_ops () =
  let d = Deque.create () in
  Deque.push_back d 1;
  ignore (Deque.pop_front d);
  Deque.push_back d 2;
  Deque.push_front d 0;
  Deque.push_back d 3;
  Alcotest.(check (list int)) "interleaved" [ 0; 2; 3 ] (Deque.to_list d)

(* ---- Task ---- *)

let test_task_routing () =
  let q = Task.create () in
  Task.submit q ~declared:(Time.us 5) ~duration:(Time.us 4) ~now:0L (fun () -> ());
  Task.submit q ~duration:(Time.us 10) ~now:0L (fun () -> ());
  Alcotest.(check int) "sized" 1 (Task.sized_pending q);
  Alcotest.(check int) "unsized" 1 (Task.unsized_pending q)

let test_task_take_sized_fit () =
  let q = Task.create () in
  Task.submit q ~declared:(Time.us 50) ~duration:(Time.us 40) ~now:0L (fun () -> ());
  Task.submit q ~declared:(Time.us 5) ~duration:(Time.us 4) ~now:0L (fun () -> ());
  (* Room for 10us: the 50us task is skipped, the 5us one returned. *)
  (match Task.take_sized q ~fits:(Time.us 10) with
  | Some t -> Alcotest.(check (option int64)) "small one" (Some (Time.us 5)) t.Task.declared
  | None -> Alcotest.fail "expected a task");
  Alcotest.(check int) "big one still queued" 1 (Task.sized_pending q);
  Alcotest.(check bool) "nothing fits 10us now" true
    (Task.take_sized q ~fits:(Time.us 10) = None)

let test_task_fifo_within_fits () =
  let q = Task.create () in
  let mk tag = Task.submit q ~declared:(Time.us 1) ~duration:(Time.us 1) ~now:(Int64.of_int tag) (fun () -> ()) in
  mk 1; mk 2; mk 3;
  let t = Option.get (Task.take_sized q ~fits:(Time.us 10)) in
  Alcotest.(check int64) "oldest first" 1L t.Task.submitted

let test_task_latency () =
  let q = Task.create () in
  Task.submit q ~declared:1L ~duration:1L ~now:100L (fun () -> ());
  let t = Option.get (Task.take_sized q ~fits:10L) in
  Task.complete q t ~now:350L;
  Alcotest.(check int) "executed" 1 (Task.executed q);
  Alcotest.(check (float 1e-9)) "latency" 250. (Task.mean_latency q)

let test_task_unsized_order () =
  let q = Task.create () in
  Task.submit q ~duration:1L ~now:1L (fun () -> ());
  Task.submit q ~duration:1L ~now:2L (fun () -> ());
  let a = Option.get (Task.take_unsized q) in
  Alcotest.(check int64) "fifo" 1L a.Task.submitted

(* ---- Worksteal ---- *)

let test_worksteal_prefers_loaded () =
  let rng = Rng.create 41L in
  let load = function 1 -> 10 | 2 -> 3 | _ -> 0 in
  for _ = 1 to 50 do
    match Worksteal.pick_victim rng ~self:0 ~n:3 ~load with
    | Some v -> Alcotest.(check bool) "victim has load" true (v = 1 || v = 2)
    | None -> Alcotest.fail "two loaded victims exist"
  done;
  (* With both probes available, the heavier one must win when both are
     probed; over many trials victim 1 dominates. *)
  let ones = ref 0 in
  for _ = 1 to 200 do
    match Worksteal.pick_victim rng ~self:0 ~n:3 ~load with
    | Some 1 -> incr ones
    | _ -> ()
  done;
  Alcotest.(check bool) "heavier victim dominates" true (!ones > 120)

let test_worksteal_empty () =
  let rng = Rng.create 43L in
  Alcotest.(check (option int)) "nothing to steal" None
    (Worksteal.pick_victim rng ~self:0 ~n:4 ~load:(fun _ -> 0))

let test_worksteal_small_system () =
  let rng = Rng.create 47L in
  Alcotest.(check (option int)) "n<2" None
    (Worksteal.pick_victim rng ~self:0 ~n:1 ~load:(fun _ -> 5));
  (* n=2: the only other CPU. *)
  (match Worksteal.pick_victim rng ~self:0 ~n:2 ~load:(fun i -> if i = 1 then 4 else 0) with
  | Some 1 -> ()
  | _ -> Alcotest.fail "must pick cpu 1")

let test_worksteal_never_self () =
  let rng = Rng.create 53L in
  for _ = 1 to 200 do
    match Worksteal.pick_victim rng ~self:2 ~n:4 ~load:(fun _ -> 1) with
    | Some v -> Alcotest.(check bool) "not self" true (v <> 2)
    | None -> Alcotest.fail "load everywhere"
  done

(* ---- Thread_pool ---- *)

let test_pool_alloc_free () =
  let p = Thread_pool.create ~capacity:3 in
  let a = Option.get (Thread_pool.alloc p) in
  let b = Option.get (Thread_pool.alloc p) in
  let c = Option.get (Thread_pool.alloc p) in
  Alcotest.(check bool) "distinct" true (a <> b && b <> c && a <> c);
  Alcotest.(check (option int)) "exhausted" None (Thread_pool.alloc p);
  Thread_pool.free p b;
  Alcotest.(check int) "in use" 2 (Thread_pool.in_use p);
  Alcotest.(check (option int)) "recycled slot" (Some b) (Thread_pool.alloc p)

let test_pool_double_free () =
  let p = Thread_pool.create ~capacity:2 in
  let a = Option.get (Thread_pool.alloc p) in
  Thread_pool.free p a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Thread_pool.free: slot not in use") (fun () ->
      Thread_pool.free p a)

let test_pool_invalid () =
  Alcotest.check_raises "capacity" (Invalid_argument "Thread_pool.create")
    (fun () -> ignore (Thread_pool.create ~capacity:0))

let suite =
  [
    Alcotest.test_case "deque ends" `Quick test_deque_ends;
    Alcotest.test_case "deque remove" `Quick test_deque_remove;
    Alcotest.test_case "deque mixed ops" `Quick test_deque_mixed_ops;
    Alcotest.test_case "task routing by size tag" `Quick test_task_routing;
    Alcotest.test_case "task take_sized fit" `Quick test_task_take_sized_fit;
    Alcotest.test_case "task fifo" `Quick test_task_fifo_within_fits;
    Alcotest.test_case "task latency accounting" `Quick test_task_latency;
    Alcotest.test_case "task unsized order" `Quick test_task_unsized_order;
    Alcotest.test_case "worksteal prefers loaded" `Quick test_worksteal_prefers_loaded;
    Alcotest.test_case "worksteal empty" `Quick test_worksteal_empty;
    Alcotest.test_case "worksteal small systems" `Quick test_worksteal_small_system;
    Alcotest.test_case "worksteal never self" `Quick test_worksteal_never_self;
    Alcotest.test_case "thread pool alloc/free" `Quick test_pool_alloc_free;
    Alcotest.test_case "thread pool double free" `Quick test_pool_double_free;
    Alcotest.test_case "thread pool invalid" `Quick test_pool_invalid;
  ]
