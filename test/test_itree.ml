(* Interval map and page map: unit tests plus qcheck properties against
   naive reference models. *)

open Pmtest_itree

(* ---------- Reference model: array of value options ---------- *)

let universe = 64

let denote map =
  Array.init universe (fun i -> Interval_map.find map i)

(* ---------- Interval map unit tests ---------- *)

let test_set_find () =
  let m = Interval_map.set Interval_map.empty ~lo:10 ~hi:20 "a" in
  Alcotest.(check (option string)) "inside" (Some "a") (Interval_map.find m 15);
  Alcotest.(check (option string)) "left edge" (Some "a") (Interval_map.find m 10);
  Alcotest.(check (option string)) "right edge excluded" None (Interval_map.find m 20);
  Alcotest.(check (option string)) "outside" None (Interval_map.find m 9)

let test_set_splits () =
  let m = Interval_map.set Interval_map.empty ~lo:0 ~hi:30 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "b" in
  Alcotest.(check (option string)) "left keeps a" (Some "a") (Interval_map.find m 5);
  Alcotest.(check (option string)) "middle is b" (Some "b") (Interval_map.find m 15);
  Alcotest.(check (option string)) "right keeps a" (Some "a") (Interval_map.find m 25);
  Alcotest.(check int) "three fragments" 3 (Interval_map.cardinal m)

let test_clear_splits () =
  let m = Interval_map.set Interval_map.empty ~lo:0 ~hi:30 "a" in
  let m = Interval_map.clear m ~lo:10 ~hi:20 in
  Alcotest.(check (option string)) "left survives" (Some "a") (Interval_map.find m 9);
  Alcotest.(check (option string)) "middle gone" None (Interval_map.find m 15);
  Alcotest.(check (option string)) "right survives" (Some "a") (Interval_map.find m 20)

let test_overlapping_clipped () =
  let m = Interval_map.set Interval_map.empty ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:20 ~hi:30 "b" in
  Alcotest.(check int) "two overlaps" 2 (List.length (Interval_map.overlapping m ~lo:5 ~hi:25));
  match Interval_map.overlapping m ~lo:5 ~hi:25 with
  | [ (5, 10, "a"); (20, 25, "b") ] -> ()
  | other ->
    Alcotest.failf "unexpected overlap list: %s"
      (String.concat ";" (List.map (fun (l, h, v) -> Printf.sprintf "(%d,%d,%s)" l h v) other))

let test_covered () =
  let m = Interval_map.set Interval_map.empty ~lo:0 ~hi:10 () in
  let m = Interval_map.set m ~lo:10 ~hi:20 () in
  Alcotest.(check bool) "contiguous covered" true (Interval_map.covered m ~lo:3 ~hi:18);
  let m = Interval_map.clear m ~lo:9 ~hi:10 in
  Alcotest.(check bool) "gap breaks cover" false (Interval_map.covered m ~lo:3 ~hi:18)

let test_update_range () =
  let m = Interval_map.set Interval_map.empty ~lo:0 ~hi:10 1 in
  let m =
    Interval_map.update_range m ~lo:5 ~hi:15 ~f:(function None -> Some 9 | Some v -> Some (v + 1))
  in
  Alcotest.(check (option int)) "untouched" (Some 1) (Interval_map.find m 2);
  Alcotest.(check (option int)) "bumped" (Some 2) (Interval_map.find m 7);
  Alcotest.(check (option int)) "gap filled" (Some 9) (Interval_map.find m 12)

(* ---------- Interval map properties ---------- *)

type op = Set of int * int * int | Clear of int * int

let gen_op =
  QCheck2.Gen.(
    let range = int_range 0 (universe - 1) >>= fun lo ->
      int_range (lo + 1) universe >|= fun hi -> (lo, hi)
    in
    oneof
      [
        (range >>= fun (lo, hi) -> int_range 0 5 >|= fun v -> Set (lo, hi, v));
        (range >|= fun (lo, hi) -> Clear (lo, hi));
      ])

let apply_model arr = function
  | Set (lo, hi, v) -> Array.mapi (fun i x -> if i >= lo && i < hi then Some v else x) arr
  | Clear (lo, hi) -> Array.mapi (fun i x -> if i >= lo && i < hi then None else x) arr

let apply_map m = function
  | Set (lo, hi, v) -> Interval_map.set m ~lo ~hi v
  | Clear (lo, hi) -> Interval_map.clear m ~lo ~hi

let prop_map_matches_model =
  QCheck2.Test.make ~name:"interval_map denotes the same function as an array"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 40) gen_op)
    (fun ops ->
      let arr = List.fold_left apply_model (Array.make universe None) ops in
      let m = List.fold_left apply_map Interval_map.empty ops in
      denote m = arr)

let prop_covered_matches_model =
  QCheck2.Test.make ~name:"covered agrees with the array model" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 20) gen_op)
        (int_range 0 (universe - 2) >>= fun lo ->
         int_range (lo + 1) (universe - 1) >|= fun hi -> (lo, hi)))
    (fun (ops, (lo, hi)) ->
      let arr = List.fold_left apply_model (Array.make universe None) ops in
      let m = List.fold_left apply_map Interval_map.empty ops in
      let model_covered =
        let rec go i = i >= hi || (arr.(i) <> None && go (i + 1)) in
        go lo
      in
      Interval_map.covered m ~lo ~hi = model_covered)

let prop_equal_denotational =
  QCheck2.Test.make ~name:"equal ignores fragmentation" ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) gen_op)
    (fun ops ->
      let m = List.fold_left apply_map Interval_map.empty ops in
      (* Re-apply a no-op split by setting a sub-range to its own value. *)
      let m' =
        match Interval_map.to_list m with
        | (lo, hi, v) :: _ when hi - lo >= 2 ->
          Interval_map.set m ~lo ~hi:(lo + 1) v
        | _ -> m
      in
      Interval_map.equal ( = ) m m')

(* ---------- Page map: the mutable twin must match exactly ---------- *)

(* Page_map indexes by 4 KiB page, so the interesting cases sit on and
   around page boundaries: ranges that straddle pages, end exactly at a
   boundary, or cover several pages whole. Sample addresses from a window
   spanning three pages plus small offsets to hit all of those.  The same
   window shifted to page 1000 scatters the keys, so whole-map walks meet
   pages far apart and lookups alternate between distant pages; a few
   ranges span both windows and the ~1000 empty pages between them. *)
let pm_universe = 3 * 4096 + 96
let pm_far = 1000 * 4096

type pm_op =
  | Pm_set of int * int * int
  | Pm_clear of int * int
  | Pm_map of int * int * int
  | Pm_reset

let gen_pm_range =
  QCheck2.Gen.(
    let point =
      oneof
        [
          int_range 0 pm_universe;
          (* Cluster around page boundaries where the jl bookkeeping lives. *)
          (int_range 0 3 >>= fun page ->
           int_range (-32) 32 >|= fun off -> max 0 (min pm_universe ((page * 4096) + off)));
          (* Exactly page-aligned, so ranges start or end on a boundary. *)
          (int_range 0 3 >|= fun page -> page * 4096);
        ]
    in
    let far = point >|= fun a -> pm_far + a in
    frequency [ (6, pair point point); (3, pair far far); (1, pair point far) ] >|= fun (a, b) ->
    if a = b then (a, b + 1) else if a < b then (a, b) else (b, a))

let gen_pm_op =
  QCheck2.Gen.(
    frequency
      [
        (4, gen_pm_range >>= fun (lo, hi) -> int_range 0 5 >|= fun v -> Pm_set (lo, hi, v));
        (4, gen_pm_range >|= fun (lo, hi) -> Pm_clear (lo, hi));
        (4, gen_pm_range >>= fun (lo, hi) -> int_range 0 5 >|= fun v -> Pm_map (lo, hi, v));
        (1, return Pm_reset);
      ])

(* map_range is update_range that never binds a gap nor unbinds a piece;
   adding [v] keeps values distinct enough to expose a misplaced split. *)
let apply_pm_imap m = function
  | Pm_set (lo, hi, v) -> Interval_map.set m ~lo ~hi v
  | Pm_clear (lo, hi) -> Interval_map.clear m ~lo ~hi
  | Pm_map (lo, hi, v) ->
    Interval_map.update_range m ~lo ~hi ~f:(Option.map (fun x -> x + v))
  | Pm_reset -> Interval_map.empty

let apply_pm_pmap m = function
  | Pm_set (lo, hi, v) -> Page_map.set m ~lo ~hi v
  | Pm_clear (lo, hi) -> Page_map.clear m ~lo ~hi
  | Pm_map (lo, hi, v) -> ignore (Page_map.map_range m ~lo ~hi (fun v x -> x + v) v)
  | Pm_reset -> Page_map.reset m

(* Every piece [exists] visits up to and including the first one [stop]
   accepts. *)
let pm_visits pm ~lo ~hi stop =
  let seen = ref [] in
  let found =
    Page_map.exists pm ~lo ~hi
      (fun seen l h v ->
        seen := (l, h, v) :: !seen;
        stop v)
      seen
  in
  (found, List.rev !seen)

let rec upto_first p = function
  | [] -> []
  | ((_, _, v) as x) :: rest -> if p v then [ x ] else x :: upto_first p rest

let prop_page_map_matches_interval_map =
  QCheck2.Test.make ~name:"page_map to_list equals interval_map" ~count:500 ~long_factor:100
    QCheck2.Gen.(list_size (int_range 0 40) gen_pm_op)
    (fun ops ->
      let im = List.fold_left apply_pm_imap Interval_map.empty ops in
      let pm = Page_map.create () in
      List.iter (apply_pm_pmap pm) ops;
      Page_map.to_list pm = Interval_map.to_list im)

(* [covers] and [exists] over [qlo, qhi) answer as [im] does: the pieces
   visited, in order, and where a search for [target] stops. *)
let queries_agree pm im (qlo, qhi) target =
  let pieces = Interval_map.overlapping im ~lo:qlo ~hi:qhi in
  let is_target v = v = target in
  Page_map.covers pm ~lo:qlo ~hi:qhi = Interval_map.covered im ~lo:qlo ~hi:qhi
  && pm_visits pm ~lo:qlo ~hi:qhi (fun _ -> false) = (false, pieces)
  && pm_visits pm ~lo:qlo ~hi:qhi is_target
     = (Interval_map.exists_overlap im ~lo:qlo ~hi:qhi ~f:is_target, upto_first is_target pieces)

let prop_page_map_queries_match =
  QCheck2.Test.make ~name:"page_map queries equal interval_map" ~count:300 ~long_factor:100
    QCheck2.Gen.(triple (list_size (int_range 0 25) gen_pm_op) gen_pm_range (int_range 0 9))
    (fun (ops, q, target) ->
      let im = List.fold_left apply_pm_imap Interval_map.empty ops in
      let pm = Page_map.create () in
      List.iter (apply_pm_pmap pm) ops;
      queries_agree pm im q target)

(* A stale remembered page or page list shows only mid-sequence: ask
   after every step, and check [map_range]'s coverage answer against
   [Interval_map.covered] just before it maps. *)
type pm_step = Op of pm_op | Query of (int * int) * int

let prop_page_map_interleaved =
  QCheck2.Test.make ~name:"queries agree mid-sequence" ~count:300 ~long_factor:100
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (frequency
           [
             (3, gen_pm_op >|= fun op -> Op op);
             (2, pair gen_pm_range (int_range 0 9) >|= fun (q, t) -> Query (q, t));
           ]))
    (fun steps ->
      let pm = Page_map.create () in
      let rec go im = function
        | [] -> Page_map.to_list pm = Interval_map.to_list im
        | Query (q, target) :: rest -> queries_agree pm im q target && go im rest
        | Op (Pm_map (lo, hi, v) as op) :: rest ->
          Page_map.map_range pm ~lo ~hi (fun v x -> x + v) v = Interval_map.covered im ~lo ~hi
          && go (apply_pm_imap im op) rest
        | Op op :: rest ->
          apply_pm_pmap pm op;
          go (apply_pm_imap im op) rest
      in
      go Interval_map.empty steps)

let test_page_map_empty_range_rejected () =
  let pm = Page_map.create () in
  Alcotest.check_raises "set" (Invalid_argument "Page_map.set: empty range") (fun () ->
      Page_map.set pm ~lo:5 ~hi:5 ());
  Alcotest.check_raises "clear" (Invalid_argument "Page_map.clear: empty range") (fun () ->
      Page_map.clear pm ~lo:9 ~hi:3)

(* The regression this module almost shipped with: clearing up to a page
   boundary must sever the joined-left flag of a continuation starting
   exactly there, or later reads re-merge a dead interval. *)
let test_page_map_boundary_sever () =
  let pm = Page_map.create () in
  Page_map.set pm ~lo:4000 ~hi:4200 "a";
  Page_map.clear pm ~lo:4000 ~hi:4096;
  Alcotest.(check (list (triple int int string)))
    "right fragment stands alone"
    [ (4096, 4200, "a") ]
    (Page_map.to_list pm);
  Page_map.set pm ~lo:4090 ~hi:4096 "a";
  Alcotest.(check (list (triple int int string)))
    "adjacent equal values stay unmerged"
    [ (4090, 4096, "a"); (4096, 4200, "a") ]
    (Page_map.to_list pm)

(* map_range splits at both bounds; a bound on a page edge must sever the
   join there, or the mapped piece re-merges with its unmapped half. *)
let test_page_map_map_severs () =
  let pm = Page_map.create () in
  Page_map.set pm ~lo:4000 ~hi:8300 "a";
  ignore (Page_map.map_range pm ~lo:4096 ~hi:8192 (fun s v -> v ^ s) "'");
  Alcotest.(check (list (triple int int string)))
    "page-aligned bounds"
    [ (4000, 4096, "a"); (4096, 8192, "a'"); (8192, 8300, "a") ]
    (Page_map.to_list pm);
  ignore (Page_map.map_range pm ~lo:4050 ~hi:4100 (fun s v -> v ^ s) "*");
  Alcotest.(check (list (triple int int string)))
    "bounds inside pages"
    [ (4000, 4050, "a"); (4050, 4096, "a*"); (4096, 4100, "a'*"); (4100, 8192, "a'");
      (8192, 8300, "a") ]
    (Page_map.to_list pm);
  Page_map.reset pm;
  Alcotest.(check (list (triple int int string))) "reset empties" [] (Page_map.to_list pm);
  Alcotest.(check bool) "reset uncovers" false (Page_map.covers pm ~lo:4000 ~hi:4001)

(* map_range answers whether its whole range was bound, wherever the gap
   sits, and maps the bound pieces either way. *)
let test_page_map_map_coverage () =
  let pm = Page_map.create () in
  Page_map.set pm ~lo:100 ~hi:200 0;
  Page_map.set pm ~lo:200 ~hi:300 10;
  Page_map.set pm ~lo:400 ~hi:500 20;
  Page_map.set pm ~lo:4000 ~hi:4096 30;
  let covered lo hi = Page_map.map_range pm ~lo ~hi (fun d v -> v + d) 1 in
  Alcotest.(check bool) "two pieces, no gap" true (covered 150 250);
  Alcotest.(check bool) "gap at the start" false (covered 50 150);
  Alcotest.(check bool) "gap in the middle" false (covered 250 450);
  Alcotest.(check bool) "gap at the end" false (covered 450 550);
  Alcotest.(check bool) "page never written" false (covered 20000 20010);
  Alcotest.(check bool) "next page missing" false (covered 4050 4150);
  Page_map.set pm ~lo:4097 ~hi:4200 40;
  Alcotest.(check bool) "gap at the page edge" false (covered 4050 4150);
  Page_map.set pm ~lo:4096 ~hi:4097 50;
  Alcotest.(check bool) "across the page edge" true (covered 4050 4150);
  Alcotest.(check bool) "ends on the page edge" true (covered 4090 4096);
  Alcotest.(check (list (triple int int int)))
    "bound pieces mapped"
    [ (100, 150, 1); (150, 200, 1); (200, 250, 11); (250, 300, 11); (400, 450, 21);
      (450, 500, 21); (4000, 4050, 30); (4050, 4090, 33); (4090, 4096, 34); (4096, 4097, 51);
      (4097, 4150, 42); (4150, 4200, 40) ]
    (Page_map.to_list pm)

(* covers and exists see a piece joined across a page edge as one piece,
   clip to the query, and exists stops at the first hit. *)
let test_page_map_walk () =
  let pm = Page_map.create () in
  Page_map.set pm ~lo:4090 ~hi:4100 "a";
  Page_map.set pm ~lo:4100 ~hi:4200 "b";
  Alcotest.(check bool) "covered across page and pieces" true (Page_map.covers pm ~lo:4090 ~hi:4200);
  Alcotest.(check bool) "gap past the end" false (Page_map.covers pm ~lo:4090 ~hi:4201);
  Alcotest.(check (pair bool (list (triple int int string))))
    "full walk, clipped"
    (false, [ (4095, 4100, "a"); (4100, 4101, "b") ])
    (pm_visits pm ~lo:4095 ~hi:4101 (fun _ -> false));
  Alcotest.(check (pair bool (list (triple int int string))))
    "stops at the first hit"
    (true, [ (4090, 4100, "a") ])
    (pm_visits pm ~lo:0 ~hi:8192 (fun v -> v = "a"))

let () =
  let qtests =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_map_matches_model;
        prop_covered_matches_model;
        prop_equal_denotational;
        prop_page_map_matches_interval_map;
        prop_page_map_queries_match;
      ]
  in
  (* Alcotest truncates a long test name to a width set by the longest
     group name; a group longer than 13 characters shortens the printed
     names of the properties below. *)
  Alcotest.run "itree"
    [
      ( "interval_map",
        [
          Alcotest.test_case "set/find boundaries" `Quick test_set_find;
          Alcotest.test_case "set splits straddlers" `Quick test_set_splits;
          Alcotest.test_case "clear splits straddlers" `Quick test_clear_splits;
          Alcotest.test_case "overlapping is clipped and ordered" `Quick test_overlapping_clipped;
          Alcotest.test_case "covered detects gaps" `Quick test_covered;
          Alcotest.test_case "update_range splits and fills" `Quick test_update_range;
        ] );
      ( "page_map",
        [
          Alcotest.test_case "empty ranges rejected" `Quick test_page_map_empty_range_rejected;
          Alcotest.test_case "page-boundary clear severs joins" `Quick test_page_map_boundary_sever;
          Alcotest.test_case "map_range severs joins at its bounds" `Quick test_page_map_map_severs;
          Alcotest.test_case "map_range reports coverage" `Quick test_page_map_map_coverage;
          QCheck_alcotest.to_alcotest prop_page_map_interleaved;
        ] );
      ( "page_map_walk",
        [ Alcotest.test_case "covers/exists clip and stop early" `Quick test_page_map_walk ] );
      ("properties", qtests);
    ]
