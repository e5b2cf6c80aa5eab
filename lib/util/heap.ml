(* Min-heap specialized to int values with the (priority, insertion seq)
   pair packed into one key word: no node allocation per push, so the A*
   router's open list stays allocation-free across millions of pushes.
   Priority first, FIFO on ties, because the packed key compares
   lexicographically. *)
module Int_pq = struct
  type t = {
    mutable keys : int array; (* (prio lsl seq_bits) lor seq *)
    mutable vals : int array;
    mutable size : int;
    mutable stamp : int;
  }

  let seq_bits = 31
  let max_priority = (1 lsl (62 - seq_bits)) - 1
  let max_stamp = (1 lsl seq_bits) - 1

  let create ?(capacity = 16) () =
    let capacity = max 1 capacity in
    {
      keys = Array.make capacity 0;
      vals = Array.make capacity 0;
      size = 0;
      stamp = 0;
    }

  let length t = t.size
  let is_empty t = t.size = 0

  let grow t =
    if t.size = Array.length t.keys then begin
      let ncap = 2 * Array.length t.keys in
      let nk = Array.make ncap 0 and nv = Array.make ncap 0 in
      Array.blit t.keys 0 nk 0 t.size;
      Array.blit t.vals 0 nv 0 t.size;
      t.keys <- nk;
      t.vals <- nv
    end

  let swap t i j =
    let k = t.keys.(i) and v = t.vals.(i) in
    t.keys.(i) <- t.keys.(j);
    t.vals.(i) <- t.vals.(j);
    t.keys.(j) <- k;
    t.vals.(j) <- v

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.keys.(i) < t.keys.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.keys.(l) < t.keys.(!smallest) then smallest := l;
    if r < t.size && t.keys.(r) < t.keys.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t ~priority v =
    if priority < 0 || priority > max_priority then
      invalid_arg "Heap.Int_pq.push: priority out of range";
    if t.stamp > max_stamp then invalid_arg "Heap.Int_pq.push: stamp overflow";
    grow t;
    t.keys.(t.size) <- (priority lsl seq_bits) lor t.stamp;
    t.vals.(t.size) <- v;
    t.stamp <- t.stamp + 1;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop_min t =
    if t.size = 0 then -1
    else begin
      let top = t.vals.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.keys.(0) <- t.keys.(t.size);
        t.vals.(0) <- t.vals.(t.size);
        sift_down t 0
      end;
      top
    end

  let clear t =
    t.size <- 0;
    t.stamp <- 0
end
