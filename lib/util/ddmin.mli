(** Delta debugging over a sequence, shared by every shrinker. *)

val pass : pred:('a array -> bool) -> 'a array -> 'a array * bool
(** One ddmin pass: try removing chunks of half the length, then halving
    down to single elements, keeping each removal after which [pred]
    still holds. Returns the (possibly) smaller array and whether
    anything was removed. *)
