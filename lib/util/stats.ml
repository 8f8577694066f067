let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stdev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs)
      in
      sqrt var

let minimum = function
  | [] -> 0.
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> 0.
  | x :: xs -> List.fold_left max x xs

(* Nearest rank: the ceil(p/100 * n)-th smallest value, clamped into
   [1, n]. *)
let percentiles ps xs =
  let sorted = Array.of_list xs in
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentiles: empty list";
  Array.sort Float.compare sorted;
  List.map
    (fun p ->
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank)))
    ps

let percentile p xs =
  match percentiles [ p ] xs with [ v ] -> v | _ -> assert false

let relative_deviation xs =
  let m = mean xs in
  if m = 0. then 0.
  else
    let mad =
      List.fold_left (fun acc x -> acc +. abs_float (x -. m)) 0. xs
      /. float_of_int (List.length xs)
    in
    mad /. m

let histogram ~bins ~lo ~hi xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  List.iter
    (fun x ->
      let idx =
        if width <= 0. then 0
        else int_of_float (floor ((x -. lo) /. width))
      in
      let idx = max 0 (min (bins - 1) idx) in
      counts.(idx) <- counts.(idx) + 1)
    xs;
  counts
