let int_heap () = Sim.Heap.create ~cmp:compare ()

(* Pop everything, smallest first. *)
let drain h =
  let rec go acc =
    if Sim.Heap.is_empty h then List.rev acc
    else go (Sim.Heap.pop_exn h :: acc)
  in
  go []

let test_empty () =
  let h = int_heap () in
  Alcotest.(check bool) "is_empty" true (Sim.Heap.is_empty h);
  Alcotest.(check (list int)) "drains to nothing" [] (drain h)

let test_push_pop_ordering () =
  let h = int_heap () in
  List.iter (Sim.Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ] (drain h);
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h)

let test_peek_does_not_remove () =
  let h = int_heap () in
  Sim.Heap.push h 2;
  Sim.Heap.push h 1;
  Alcotest.(check int) "peek min" 1 (Sim.Heap.peek_exn h);
  Alcotest.(check (list int)) "still holds both" [ 1; 2 ] (drain h)

let test_pop_exn () =
  let h = int_heap () in
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Sim.Heap.pop_exn h));
  Sim.Heap.push h 7;
  Alcotest.(check int) "pop_exn" 7 (Sim.Heap.pop_exn h)

let test_custom_order () =
  let h = Sim.Heap.create ~cmp:(fun a b -> compare b a) () in
  List.iter (Sim.Heap.push h) [ 1; 3; 2 ];
  Alcotest.(check (list int)) "max-heap drain" [ 3; 2; 1 ] (drain h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Sim.Heap.push h) xs;
      drain h = List.sort compare xs)

let prop_interleaved_push_pop =
  QCheck.Test.make ~name:"interleaved push/pop returns global minimum"
    ~count:200
    QCheck.(list (pair int bool))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      let remove_one v l =
        let rec go = function
          | [] -> []
          | y :: rest when y = v -> rest
          | y :: rest -> y :: go rest
        in
        go l
      in
      List.for_all
        (fun (x, pop) ->
          if pop then begin
            let expect =
              match List.sort compare !model with [] -> None | m :: _ -> Some m
            in
            match expect with
            | None -> Sim.Heap.is_empty h
            | Some e ->
                let g = Sim.Heap.pop_exn h in
                model := remove_one g !model;
                e = g
          end
          else begin
            Sim.Heap.push h x;
            model := x :: !model;
            true
          end)
        ops)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "push/pop ordering" `Quick test_push_pop_ordering;
    Alcotest.test_case "peek does not remove" `Quick test_peek_does_not_remove;
    Alcotest.test_case "pop_exn" `Quick test_pop_exn;
    Alcotest.test_case "custom comparison" `Quick test_custom_order;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_interleaved_push_pop;
  ]
