import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('nyt.csv', parse_dates=['tpep_pickup_datetime'])
df = df[df.fare_amount > 0]
df['day'] = df.tpep_pickup_datetime.dt.dayofweek
g = df.groupby(['day'])['passenger_count'].sum()
print(g)
