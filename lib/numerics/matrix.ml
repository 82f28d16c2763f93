type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols
let raw m = m.data
let idx m i j = (i * m.cols) + j

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.get";
  m.data.(idx m i j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.set";
  m.data.(idx m i j) <- x

let add_to m i j x = set m i j (get m i j +. x)

let identity n =
  let m = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  let m = create ~rows ~cols in
  Array.iteri
    (fun i r ->
      if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged";
      Array.iteri (fun j x -> set m i j x) r)
    a;
  m

let copy m = { m with data = Array.copy m.data }
let map f m = { m with data = Array.map f m.data }

let transpose m =
  let t = create ~rows:m.cols ~cols:m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set t j i (get m i j)
    done
  done;
  t

let zip_with f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix: shape";
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = zip_with ( +. ) a b
let sub a b = zip_with ( -. ) a b
let scale c m = map (fun x -> c *. x) m

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: shape";
  let m = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          add_to m i j (aik *. get b k j)
        done
    done
  done;
  m

let mat_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mat_vec: shape";
  Array.init m.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.cols - 1 do
        s := !s +. (get m i j *. v.(j))
      done;
      !s)

let vec_mat v m =
  if Array.length v <> m.rows then invalid_arg "Matrix.vec_mat: shape";
  Array.init m.cols (fun j ->
      let s = ref 0.0 in
      for i = 0 to m.rows - 1 do
        s := !s +. (v.(i) *. get m i j)
      done;
      !s)

let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

let equal ?(eps = 0.0) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps)
       (Array.map Fun.id a.data) b.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%12.6g " (get m i j)
    done;
    Format.fprintf ppf "@]@,"
  done;
  Format.fprintf ppf "@]"
