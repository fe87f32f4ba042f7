(** 64-bit FNV-1a, the hash behind plan-cache keys and plan-digest
    labels.  A hash is threaded through [mix_*] calls starting from
    {!offset_basis}; the byte order of every mixer is fixed, so hashes
    are stable across runs, domains and builds. *)

val offset_basis : int64

val mix_byte : int64 -> int -> int64
(** Mix the low 8 bits of an int. *)

val mix_int64 : int64 -> int64 -> int64
(** Mix all 8 bytes, least significant first. *)

val mix_int : int64 -> int -> int64
val mix_string : int64 -> string -> int64
(** Length first, then the bytes — so concatenations do not collide. *)

val hex : int64 -> string
(** 16 lowercase hex digits. *)

val cost_model : int64 Lazy.t
(** Fingerprint of the compiled-in Table 2 cost model (every op at levels
    0-24), part of plan-cache keys and region shape keys. *)
