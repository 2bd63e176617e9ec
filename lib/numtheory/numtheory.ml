let add_mod a b m =
  (* a, b < m < 2^61 so a + b < 2^62: no overflow. *)
  let s = a + b in
  if s >= m then s - m else s

let mul_mod a b m =
  if m <= 0 then invalid_arg "Numtheory.mul_mod: modulus";
  let a = ((a mod m) + m) mod m in
  let b = ((b mod m) + m) mod m in
  if m < 1 lsl 31 then a * b mod m
  else begin
    (* double-and-add: invariant acc, base < m < 2^61 *)
    let acc = ref 0 and base = ref a and e = ref b in
    while !e > 0 do
      if !e land 1 = 1 then acc := add_mod !acc !base m;
      base := add_mod !base !base m;
      e := !e lsr 1
    done;
    !acc
  end

let pow_mod b e m =
  if e < 0 then invalid_arg "Numtheory.pow_mod: negative exponent";
  if m <= 0 then invalid_arg "Numtheory.pow_mod: modulus";
  let acc = ref 1 and base = ref (((b mod m) + m) mod m) and e = ref e in
  while !e > 0 do
    if !e land 1 = 1 then acc := mul_mod !acc !base m;
    base := mul_mod !base !base m;
    e := !e lsr 1
  done;
  !acc

(* Deterministic Miller-Rabin witness set, valid for n < 3.3e24. *)
let mr_witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let s = ref 0 and d = ref (n - 1) in
    while !d land 1 = 0 do
      incr s;
      d := !d lsr 1
    done;
    let witnesses_pass a =
      let a = a mod n in
      if a = 0 then true
      else begin
        let x = ref (pow_mod a !d n) in
        if !x = 1 || !x = n - 1 then true
        else begin
          let ok = ref false and i = ref 1 in
          while (not !ok) && !i < !s do
            x := mul_mod !x !x n;
            if !x = n - 1 then ok := true;
            incr i
          done;
          !ok
        end
      end
    in
    List.for_all witnesses_pass mr_witnesses
  end

let next_prime n =
  let c = ref (max 2 (n + 1)) in
  while not (is_prime !c) do
    incr c
  done;
  !c

let primes_upto n =
  if n < 2 then []
  else begin
    let sieve = Array.make (n + 1) true in
    sieve.(0) <- false;
    sieve.(1) <- false;
    let i = ref 2 in
    while !i * !i <= n do
      if sieve.(!i) then begin
        let j = ref (!i * !i) in
        while !j <= n do
          sieve.(!j) <- false;
          j := !j + !i
        done
      end;
      incr i
    done;
    let acc = ref [] in
    for p = n downto 2 do
      if sieve.(p) then acc := p :: !acc
    done;
    !acc
  end

(* Per-k memo of the sieve, for the per-trial prime sampling of the
   fingerprint experiments: the same k is drawn from hundreds of times
   per table row, and rejection sampling re-runs Miller-Rabin on every
   candidate. Above the threshold (where the sieve itself would cost
   tens of MB) the rejection path is kept. The caches are shared across
   domains, hence the mutex; a hit is one Hashtbl lookup. *)
let prime_cache_threshold = 1 lsl 24

let sieve_cache : (int, int array) Hashtbl.t = Hashtbl.create 8
let bertrand_cache : (int, int) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let locked f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let primes_le k =
  if k < 2 then invalid_arg "Numtheory.primes_le: k < 2";
  locked (fun () ->
      match Hashtbl.find_opt sieve_cache k with
      | Some a -> a
      | None ->
          (* sieve inside the lock: briefly serializing the domains
             beats every one of them sieving the same k *)
          let a = Array.of_list (primes_upto k) in
          Hashtbl.add sieve_cache k a;
          a)

let random_prime_le st k =
  if k < 2 then invalid_arg "Numtheory.random_prime_le: k < 2";
  if k <= prime_cache_threshold then begin
    let ps = primes_le k in
    ps.(Random.State.full_int st (Array.length ps))
  end
  else begin
    let rec pick () =
      let c = 2 + Random.State.full_int st (k - 1) in
      if is_prime c then c else pick ()
    in
    pick ()
  end

let bertrand_prime k =
  if k < 1 then invalid_arg "Numtheory.bertrand_prime: k < 1";
  match locked (fun () -> Hashtbl.find_opt bertrand_cache k) with
  | Some p -> p
  | None ->
      let p = next_prime (3 * k) in
      (* Bertrand's postulate guarantees a prime in (3k, 6k]. *)
      assert (p <= 6 * k);
      locked (fun () -> Hashtbl.replace bertrand_cache k p);
      p

let random_unit st p =
  if p < 2 then invalid_arg "Numtheory.random_unit: p < 2";
  1 + Random.State.full_int st (p - 1)

let mod_of_bits v ~modulus =
  if modulus <= 0 then invalid_arg "Numtheory.mod_of_bits: modulus";
  Util.Bitstring.fold_bits
    (fun _ bit e -> add_mod (add_mod e e modulus) (Bool.to_int bit mod modulus) modulus)
    v 0

let fingerprint_k ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Numtheory.fingerprint_k: m, n >= 1";
  let cube = m * m * m in
  if cube / m / m <> m then invalid_arg "Numtheory.fingerprint_k: m^3 overflow";
  let prod = cube * n in
  if prod / n <> cube then invalid_arg "Numtheory.fingerprint_k: m^3*n overflow";
  let lg =
    let rec go acc x = if x <= 1 then acc else go (acc + 1) ((x + 1) / 2) in
    max 1 (go 0 prod)
  in
  let k = prod * lg in
  if k / lg <> prod || 6 * k < 0 then
    invalid_arg "Numtheory.fingerprint_k: k overflow";
  k
