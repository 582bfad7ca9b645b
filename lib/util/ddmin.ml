(* Remove the half-open index range [lo, hi). *)
let without a lo hi =
  let n = Array.length a in
  Array.init (n - (hi - lo)) (fun i -> if i < lo then a.(i) else a.(i + (hi - lo)))

let pass ~pred a =
  let a = ref a in
  let changed = ref false in
  let chunk = ref (max 1 (Array.length !a / 2)) in
  while !chunk >= 1 do
    let i = ref 0 in
    while !i < Array.length !a do
      let hi = min (Array.length !a) (!i + !chunk) in
      let candidate = without !a !i hi in
      if Array.length candidate < Array.length !a && pred candidate then begin
        a := candidate;
        changed := true
        (* keep [i]: the next chunk slid into place *)
      end
      else i := !i + !chunk
    done;
    chunk := if !chunk = 1 then 0 else !chunk / 2
  done;
  (!a, !changed)
