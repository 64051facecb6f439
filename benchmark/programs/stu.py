import lazyfatpandas.pandas as pd
import matplotlib.pyplot as plt
pd.analyze()
df = pd.read_csv('stu.csv')
df = df[df.attendance > 70.0]
df['stem'] = (df.math + df.science) / 2.0
g1 = df.groupby(['school'])['math'].mean()
plt.plot(g1)
g2 = df.groupby(['school'])['reading'].mean()
plt.plot(g2)
g3 = df.groupby(['school'])['science'].mean()
plt.plot(g3)
g4 = df.groupby(['grade_level'])['stem'].mean()
plt.plot(g4)
top = df.groupby(['school'])['stem'].max()
print(top)
avg = df.stem.mean()
print(f'district stem average: {avg}')
